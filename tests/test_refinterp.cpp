//===----------------------------------------------------------------------===//
///
/// \file
/// Differential tests: the definitional interpreter for the Appendix B
/// semantics (src/refinterp) against the bytecode VM. Same programs must
/// produce the same output, the same result, and the same blame.
///
//===----------------------------------------------------------------------===//
#include "bench_programs/Benchmarks.h"
#include "grift/Grift.h"
#include "lattice/Lattice.h"
#include "refinterp/RefInterp.h"

#include <gtest/gtest.h>

using namespace grift;

namespace {

class RefInterpTest : public ::testing::Test {
protected:
  Grift G;

  /// Runs source through both the reference interpreter and the VM
  /// (coercion mode) and checks full agreement. Returns the VM result.
  RunResult differential(std::string_view Source, std::string Input = "") {
    std::string Errors;
    auto Ast = G.parse(Source, Errors);
    EXPECT_TRUE(Ast.has_value()) << Errors;
    return differentialAst(*Ast, std::move(Input));
  }

  RunResult differentialAst(const Program &Ast, std::string Input = "") {
    std::string Errors;
    auto Core = G.check(Ast, Errors);
    EXPECT_TRUE(Core.has_value()) << Errors;
    auto Exe = G.compileAst(Ast, CastMode::Coercions, Errors);
    EXPECT_TRUE(Exe.has_value()) << Errors;
    RunResult VM = Exe->run(Input);
    refinterp::RefResult Ref =
        refinterp::interpret(G.types(), G.coercions(), *Core, Input);

    EXPECT_EQ(VM.OK, Ref.OK) << "VM: "
                             << (VM.OK ? VM.ResultText : VM.Error.str())
                             << "\nRef: "
                             << (Ref.OK ? Ref.ResultText : Ref.Message);
    EXPECT_EQ(VM.Output, Ref.Output);
    if (VM.OK && Ref.OK) {
      EXPECT_EQ(VM.ResultText, Ref.ResultText);
    } else if (!VM.OK && !Ref.OK) {
      EXPECT_EQ(VM.Error.isBlame(), Ref.isBlame());
      if (VM.Error.isBlame())
        EXPECT_EQ(VM.Error.Label, Ref.Label);
    }
    return VM;
  }
};

} // namespace

TEST_F(RefInterpTest, IntArithmeticWrapsAtTheFixnumWidth) {
  // Both engines wrap Int at the 48-bit fixnum payload. The fuzz program
  // that exposed the disagreement (the reference interpreter kept 64
  // bits) squares a product past 2^47 twice, through Dyn and a vector.
  EXPECT_EQ(differential("(* 140737488355327 2)").ResultText, "-2");
  EXPECT_EQ(differential("(+ 140737488355327 1)").ResultText,
            "-140737488355328");
  EXPECT_EQ(differential("(- -140737488355328 1)").ResultText,
            "140737488355327");
  // Past int64 too: (2^47 - 1)^2 = 2^94 - 2^48 + 1.
  EXPECT_EQ(differential("(* 140737488355327 140737488355327)").ResultText,
            "1");
  EXPECT_EQ(differential("(read-int)", "140737488355328").ResultText,
            "-140737488355328");
  differential(
      "(define (g1 [g1p0 : Int]) : Int (* (* (if #f g1p0 g1p0) 86)"
      " (ann (ann (let ([v0 : (Tuple Int Bool) (tuple 1 #t)]) g1p0) Dyn)"
      " Int)))\n"
      "(g1 (g1 (* (vector-ref (ann (ann (make-vector 2 -98) Dyn) (Vect Int))"
      " 0) (vector-ref (ann (ann (make-vector 2 48) Dyn) (Vect Int)) 0))))");
}

TEST_F(RefInterpTest, CoreForms) {
  differential("42");
  differential("(fl+ 1.5 2.0)");
  differential("(if (< 1 2) #\\a #\\b)");
  differential("(let ([x 1] [y 2]) (tuple x y (+ x y)))");
  differential("(begin (print-int 1) (print-char #\\,) (print-int 2) ())");
  differential("(repeat (i 0 10) (acc : Int 1) (* acc 2))");
  differential("(unbox (box (tuple 1 2)))");
  differential("(let ([v (make-vector 4 1)])"
               "  (begin (vector-set! v 2 9)"
               "         (tuple (vector-ref v 2) (vector-length v))))");
  differential("(+ (read-int) (read-int))", "40 2");
}

TEST_F(RefInterpTest, FunctionsAndRecursion) {
  differential("((lambda ([x : Int]) (* x x)) 9)");
  differential("(define (fact [n : Int]) : Int"
               "  (if (= n 0) 1 (* n (fact (- n 1))))) (fact 10)");
  differential(
      "(letrec ([e? : (Int -> Bool)"
      "           (lambda ([n : Int]) : Bool (if (= n 0) #t (o? (- n 1))))]"
      "         [o? : (Int -> Bool)"
      "           (lambda ([n : Int]) : Bool (if (= n 0) #f (e? (- n 1))))])"
      "  (tuple (e? 10) (o? 10)))");
  differential("(let ([mk (lambda ([n : Int]) (lambda ([m : Int]) (+ n m)))])"
               "  ((mk 40) 2))");
}

TEST_F(RefInterpTest, GradualFlows) {
  differential("(ann (ann 42 Dyn) Int)");
  differential("((lambda (x) (+ x 1)) (ann 41 Dyn))");
  differential("((lambda (f) (f 21)) (lambda ([x : Int]) : Int (* 2 x)))");
  differential("(let ([f (ann (lambda ([x : Int]) : Int (+ x 1)) Dyn)])"
               "  ((ann f (Int -> Int)) 41))");
  differential("((lambda (b) (begin (box-set! b 5) (unbox b))) (box 1))");
  differential("((lambda (v) (vector-ref v 1)) (make-vector 3 8))");
  differential("((lambda (t) (tuple-proj t 1)) (tuple 1 2.5))");
  differential("(define f : (Dyn -> Dyn) (lambda ([x : Int]) x)) (f 7)");
}

TEST_F(RefInterpTest, BlameAgreement) {
  differential("(ann (ann #t Dyn) Int)");
  differential("((lambda (f) (f 1)) 5)");
  differential("(define f : (Dyn -> Dyn) (lambda ([x : Int]) x)) (f #t)");
  differential("(let ([v : (Vect Int) (make-vector 2 0)])"
               "  (let ([w : (Vect Dyn) v]) (vector-set! w 0 #f)))");
  differential("(vector-ref (make-vector 2 0) 5)");
  differential("(/ 1 0)");
}

TEST_F(RefInterpTest, ProxyCompression) {
  // The cast chain from test_vm, through both engines.
  differential(
      "(define f : (Int -> Int) (lambda ([x : Int]) : Int (+ x 1)))"
      "(define g1 : (Dyn -> Dyn) f)"
      "(define g2 : (Int -> Dyn) g1)"
      "(define g3 : (Dyn -> Int) g2)"
      "(define g4 : (Int -> Int) g3)"
      "(g4 41)");
  // even/odd CPS at a small n (the ref interpreter has no tail calls).
  differential(evenOddSource(), "200");
}

TEST_F(RefInterpTest, RecursiveTypes) {
  differential(
      "(define (count-from [n : Int]) : (Rec s (Tuple Int (-> s)))"
      "  (tuple n (lambda () (count-from (+ n 1)))))"
      "(define (nth [s : (Rec s (Tuple Int (-> s)))] [k : Int]) : Int"
      "  (if (= k 0) (tuple-proj s 0) (nth ((tuple-proj s 1)) (- k 1))))"
      "(nth (count-from 5) 7)");
}

//===----------------------------------------------------------------------===//
// Whole benchmarks, typed and erased
//===----------------------------------------------------------------------===//

namespace {
class RefInterpBenchmarks : public ::testing::TestWithParam<int> {};
} // namespace

TEST_P(RefInterpBenchmarks, AgreesWithVM) {
  const BenchProgram &B = allBenchmarks()[GetParam()];
  Grift G;
  std::string Errors;
  auto Ast = G.parse(B.Source, Errors);
  ASSERT_TRUE(Ast.has_value()) << Errors;

  auto check = [&](const Program &Prog) {
    auto Core = G.check(Prog, Errors);
    ASSERT_TRUE(Core.has_value()) << Errors;
    refinterp::RefResult Ref =
        refinterp::interpret(G.types(), G.coercions(), *Core, B.TestInput);
    ASSERT_TRUE(Ref.OK) << B.Name << ": " << Ref.Message;
    EXPECT_EQ(Ref.Output, B.TestOutput) << B.Name;
  };

  check(*Ast);                          // typed
  check(eraseTypes(*Ast, G.types()));   // fully dynamic
}

INSTANTIATE_TEST_SUITE_P(AllBenchmarks, RefInterpBenchmarks,
                         ::testing::Range(0, 8), [](const auto &Info) {
                           std::string Name =
                               allBenchmarks()[Info.param].Name;
                           for (char &C : Name)
                             if (C == '-')
                               C = '_';
                           return Name;
                         });

TEST_F(RefInterpTest, SampledConfigurationsAgreeWithVM) {
  const BenchProgram &B = getBenchmark("quicksort");
  std::string Errors;
  auto Ast = G.parse(B.Source, Errors);
  ASSERT_TRUE(Ast.has_value()) << Errors;
  auto Configs = sampleFineGrained(*Ast, G.types(), 3, 1, 0xD1FF);
  for (const Configuration &C : Configs)
    differentialAst(C.Prog, B.TestInput);
}
