// Tests for the in-tree CDCL solver (src/sat): verdicts against a
// brute-force reference on random small CNFs, model validity, determinism
// across runs, conflict budgets, and miters of known-equivalent circuit
// pairs built through the symfe encoder.
#include <gtest/gtest.h>

#include <cstdint>
#include <vector>

#include "sat/solver.h"
#include "sim/symfe/encoder.h"
#include "util/rng.h"

namespace sat = desync::sat;
namespace symfe = desync::sim::symfe;

namespace {

struct Cnf {
  int n_vars = 0;
  std::vector<std::vector<sat::Lit>> clauses;
};

Cnf randomCnf(std::uint64_t seed) {
  desync::util::Rng rng{seed};
  Cnf cnf;
  cnf.n_vars = rng.range(3, 20);
  const int n_clauses = rng.range(2, 1 + cnf.n_vars * 5);
  for (int c = 0; c < n_clauses; ++c) {
    const int width = rng.range(1, 3);  // literals
    std::vector<sat::Lit> clause;
    for (int k = 0; k < width; ++k) {
      const auto v = static_cast<sat::Var>(rng.below(cnf.n_vars));
      clause.push_back(sat::mkLit(v, rng.chance(50)));
    }
    cnf.clauses.push_back(std::move(clause));
  }
  return cnf;
}

bool clauseSatisfied(const std::vector<sat::Lit>& clause,
                     std::uint32_t assignment) {
  for (const sat::Lit l : clause) {
    const bool val = ((assignment >> sat::varOf(l)) & 1) != 0;
    if (val != sat::signOf(l)) return true;
  }
  return false;
}

/// Brute-force reference: tries all 2^n assignments (n <= 20).
bool bruteForceSat(const Cnf& cnf) {
  const std::uint32_t total = 1u << cnf.n_vars;
  for (std::uint32_t a = 0; a < total; ++a) {
    bool ok = true;
    for (const auto& clause : cnf.clauses) {
      if (!clauseSatisfied(clause, a)) {
        ok = false;
        break;
      }
    }
    if (ok) return true;
  }
  return false;
}

sat::Verdict solveCnf(const Cnf& cnf, sat::Solver& solver) {
  for (int i = 0; i < cnf.n_vars; ++i) solver.newVar();
  for (const auto& clause : cnf.clauses) solver.addClause(clause);
  return solver.solve();
}

// ------------------------------------------------------------ basics

TEST(Sat, EmptyProblemIsSat) {
  sat::Solver s;
  EXPECT_EQ(s.solve(), sat::Verdict::kSat);
}

TEST(Sat, UnitClausesPropagate) {
  sat::Solver s;
  const sat::Var a = s.newVar();
  const sat::Var b = s.newVar();
  ASSERT_TRUE(s.addClause(sat::mkLit(a)));
  ASSERT_TRUE(s.addClause(~sat::mkLit(a), sat::mkLit(b)));
  EXPECT_EQ(s.solve(), sat::Verdict::kSat);
  EXPECT_TRUE(s.modelValue(a));
  EXPECT_TRUE(s.modelValue(b));
}

TEST(Sat, ContradictoryUnitsAreUnsat) {
  sat::Solver s;
  const sat::Var a = s.newVar();
  s.addClause(sat::mkLit(a));
  s.addClause(~sat::mkLit(a));
  EXPECT_FALSE(s.okay());
  EXPECT_EQ(s.solve(), sat::Verdict::kUnsat);
}

TEST(Sat, TautologyIsDropped) {
  sat::Solver s;
  const sat::Var a = s.newVar();
  EXPECT_TRUE(s.addClause(sat::mkLit(a), ~sat::mkLit(a)));
  EXPECT_EQ(s.solve(), sat::Verdict::kSat);
}

TEST(Sat, PigeonholeThreeIntoTwoIsUnsat) {
  // p_ij: pigeon i in hole j; 3 pigeons, 2 holes.
  sat::Solver s;
  sat::Var p[3][2];
  for (auto& pi : p)
    for (sat::Var& v : pi) v = s.newVar();
  for (auto& pi : p) s.addClause(sat::mkLit(pi[0]), sat::mkLit(pi[1]));
  for (int j = 0; j < 2; ++j)
    for (int i = 0; i < 3; ++i)
      for (int k = i + 1; k < 3; ++k)
        s.addClause(~sat::mkLit(p[i][j]), ~sat::mkLit(p[k][j]));
  EXPECT_EQ(s.solve(), sat::Verdict::kUnsat);
  EXPECT_GT(s.stats().conflicts, 0u);
}

// ------------------------------------------------- reference cross-check

TEST(Sat, MatchesBruteForceOnRandomCnfs) {
  int sat_count = 0;
  int unsat_count = 0;
  for (std::uint64_t seed = 1; seed <= 300; ++seed) {
    const Cnf cnf = randomCnf(seed);
    sat::Solver solver;
    const sat::Verdict v = solveCnf(cnf, solver);
    const bool expect = bruteForceSat(cnf);
    ASSERT_EQ(v, expect ? sat::Verdict::kSat : sat::Verdict::kUnsat)
        << "seed " << seed;
    if (expect) {
      ++sat_count;
      // The model must actually satisfy every clause.
      std::uint32_t a = 0;
      for (int i = 0; i < cnf.n_vars; ++i) {
        if (solver.modelValue(i)) a |= 1u << i;
      }
      for (const auto& clause : cnf.clauses) {
        ASSERT_TRUE(clauseSatisfied(clause, a)) << "seed " << seed;
      }
    } else {
      ++unsat_count;
    }
  }
  // The generator must exercise both outcomes, or the test is vacuous.
  EXPECT_GT(sat_count, 20);
  EXPECT_GT(unsat_count, 20);
}

TEST(Sat, DeterministicAcrossRuns) {
  for (std::uint64_t seed = 1; seed <= 40; ++seed) {
    const Cnf cnf = randomCnf(seed * 7919);
    sat::Solver a, b;
    const sat::Verdict va = solveCnf(cnf, a);
    const sat::Verdict vb = solveCnf(cnf, b);
    ASSERT_EQ(va, vb) << "seed " << seed;
    ASSERT_EQ(a.stats().conflicts, b.stats().conflicts) << "seed " << seed;
    ASSERT_EQ(a.stats().decisions, b.stats().decisions) << "seed " << seed;
    if (va == sat::Verdict::kSat) {
      for (int i = 0; i < cnf.n_vars; ++i) {
        ASSERT_EQ(a.modelValue(i), b.modelValue(i)) << "seed " << seed;
      }
    }
  }
}

TEST(Sat, ConflictBudgetYieldsUnknown) {
  // A hard pigeonhole instance (6 pigeons, 5 holes) with a tiny budget
  // must give up honestly rather than mislabel.
  sat::Solver s;
  constexpr int kP = 6, kH = 5;
  sat::Var p[kP][kH];
  for (auto& pi : p)
    for (sat::Var& v : pi) v = s.newVar();
  for (auto& pi : p) {
    std::vector<sat::Lit> at_least;
    for (const sat::Var v : pi) at_least.push_back(sat::mkLit(v));
    s.addClause(at_least);
  }
  for (int j = 0; j < kH; ++j)
    for (int i = 0; i < kP; ++i)
      for (int k = i + 1; k < kP; ++k)
        s.addClause(~sat::mkLit(p[i][j]), ~sat::mkLit(p[k][j]));
  sat::Limits tiny;
  tiny.max_conflicts = 3;
  EXPECT_EQ(s.solve(tiny), sat::Verdict::kUnknown);
  // With the budget lifted the same solver finishes the proof.
  EXPECT_EQ(s.solve(), sat::Verdict::kUnsat);
}

// -------------------------------------------- equivalent-cone miters

/// Miter of two literals: SAT iff they can differ.
sat::Verdict miter(sat::Solver& s, sat::Lit a, sat::Lit b) {
  s.addClause(a, b);
  s.addClause(~a, ~b);
  return s.solve();
}

TEST(Sat, EquivalentConePairsAreUnsat) {
  {
    // Distribution: a & (b | c) == (a & b) | (a & c).
    sat::Solver s;
    symfe::Encoder e(s);
    const sat::Lit a = e.leaf("in:a"), b = e.leaf("in:b"),
                   c = e.leaf("in:c");
    const sat::Lit lhs = e.andLit(a, e.orLit(b, c));
    const sat::Lit rhs = e.orLit(e.andLit(a, b), e.andLit(a, c));
    EXPECT_EQ(miter(s, lhs, rhs), sat::Verdict::kUnsat);
  }
  {
    // XOR associativity over a 6-input chain, folded two different ways.
    sat::Solver s;
    symfe::Encoder e(s);
    std::vector<sat::Lit> in;
    for (int i = 0; i < 6; ++i) in.push_back(e.leaf("in:x" + std::to_string(i)));
    sat::Lit fold_l = in[0];
    for (int i = 1; i < 6; ++i) fold_l = e.xorLit(fold_l, in[i]);
    sat::Lit fold_r = in[5];
    for (int i = 4; i >= 0; --i) fold_r = e.xorLit(in[i], fold_r);
    EXPECT_EQ(miter(s, fold_l, fold_r), sat::Verdict::kUnsat);
  }
  {
    // De Morgan: ~(a | b) == ~a & ~b (negated literals through the
    // encoder's phase normalization).
    sat::Solver s;
    symfe::Encoder e(s);
    const sat::Lit a = e.leaf("in:a"), b = e.leaf("in:b");
    const sat::Lit lhs = ~e.orLit(a, b);
    const sat::Lit rhs = e.andLit(~a, ~b);
    // Canonicalization should collapse these to the same literal.
    EXPECT_EQ(lhs, rhs);
    EXPECT_EQ(miter(s, lhs, rhs), sat::Verdict::kUnsat);
  }
  {
    // Near-equivalent pair must stay SAT: a & b vs a | b differ at a!=b.
    sat::Solver s;
    symfe::Encoder e(s);
    const sat::Lit a = e.leaf("in:a"), b = e.leaf("in:b");
    EXPECT_EQ(miter(s, e.andLit(a, b), e.orLit(a, b)), sat::Verdict::kSat);
    const bool av = s.modelValue(sat::varOf(a)) != sat::signOf(a);
    const bool bv = s.modelValue(sat::varOf(b)) != sat::signOf(b);
    EXPECT_NE(av, bv);
  }
}

TEST(Sat, IteEncodingMatchesSemantics) {
  // Exhaustive check of the ite node against its defining table.
  for (int row = 0; row < 8; ++row) {
    sat::Solver s;
    symfe::Encoder e(s);
    const sat::Lit sl = e.leaf("in:s"), t = e.leaf("in:t"),
                   el = e.leaf("in:e");
    const sat::Lit out = e.iteLit(sl, t, el);
    const bool sv = (row & 1) != 0, tv = (row & 2) != 0, ev = (row & 4) != 0;
    s.addClause(sv ? sl : ~sl);
    s.addClause(tv ? t : ~t);
    s.addClause(ev ? el : ~el);
    ASSERT_EQ(s.solve(), sat::Verdict::kSat) << "row " << row;
    const bool expect = sv ? tv : ev;
    ASSERT_EQ(s.modelValue(sat::varOf(out)) != sat::signOf(out), expect)
        << "row " << row;
  }
}

}  // namespace
