// Tests for the in-tree CDCL solver (src/sat): verdicts against a
// brute-force reference on random small CNFs, model validity, determinism
// across runs, conflict budgets, and miters of known-equivalent circuit
// pairs built through the symfe proof graph and its CNF.
#include <gtest/gtest.h>

#include <cstdint>
#include <string>
#include <vector>

#include "sat/solver.h"
#include "sim/symfe/graph.h"
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

/// Miter of two graph literals in a fresh solver: SAT iff they can differ.
struct GraphMiter {
  sat::Solver s;
  symfe::Cnf cnf;
  sat::Verdict verdict;

  GraphMiter(const symfe::ProofGraph& g, symfe::NodeLit a, symfe::NodeLit b)
      : cnf(g, s) {
    const sat::Lit x = cnf.lit(a);
    const sat::Lit y = cnf.lit(b);
    s.addClause(x, y);
    s.addClause(~x, ~y);
    verdict = s.solve();
  }
  /// Model value of an encoded literal.
  bool value(symfe::NodeLit l) {
    const sat::Lit x = *cnf.find(l);
    return s.modelValue(sat::varOf(x)) != sat::signOf(x);
  }
};

symfe::NodeLit input(symfe::ProofGraph& g, const std::string& name) {
  return g.leaf(symfe::LeafKind::kInput, name);
}

/// Two-input gates through the graph's table nodes.
symfe::NodeLit gate(symfe::ProofGraph& g, std::uint64_t t, symfe::NodeLit a,
                    symfe::NodeLit b) {
  const symfe::NodeLit in[] = {a, b};
  return g.table(t, in);
}
symfe::NodeLit andLit(symfe::ProofGraph& g, symfe::NodeLit a,
                      symfe::NodeLit b) {
  return gate(g, 0x8, a, b);
}
symfe::NodeLit orLit(symfe::ProofGraph& g, symfe::NodeLit a,
                     symfe::NodeLit b) {
  return gate(g, 0xE, a, b);
}
symfe::NodeLit xorLit(symfe::ProofGraph& g, symfe::NodeLit a,
                      symfe::NodeLit b) {
  return gate(g, 0x6, a, b);
}

TEST(Sat, EquivalentConePairsAreUnsat) {
  {
    // Distribution: a & (b | c) == (a & b) | (a & c).
    symfe::ProofGraph g;
    const symfe::NodeLit a = input(g, "a"), b = input(g, "b"),
                         c = input(g, "c");
    const symfe::NodeLit lhs = andLit(g, a, orLit(g, b, c));
    const symfe::NodeLit rhs = orLit(g, andLit(g, a, b), andLit(g, a, c));
    EXPECT_EQ(GraphMiter(g, lhs, rhs).verdict, sat::Verdict::kUnsat);
  }
  {
    // XOR associativity over a 6-input chain, folded two different ways.
    symfe::ProofGraph g;
    std::vector<symfe::NodeLit> in;
    for (int i = 0; i < 6; ++i) in.push_back(input(g, "x" + std::to_string(i)));
    symfe::NodeLit fold_l = in[0];
    for (int i = 1; i < 6; ++i) fold_l = xorLit(g, fold_l, in[i]);
    symfe::NodeLit fold_r = in[5];
    for (int i = 4; i >= 0; --i) fold_r = xorLit(g, in[i], fold_r);
    EXPECT_EQ(GraphMiter(g, fold_l, fold_r).verdict, sat::Verdict::kUnsat);
  }
  {
    // De Morgan: ~(a | b) == ~a & ~b (negated literals through the
    // graph's phase normalization).
    symfe::ProofGraph g;
    const symfe::NodeLit a = input(g, "a"), b = input(g, "b");
    const symfe::NodeLit lhs = ~orLit(g, a, b);
    const symfe::NodeLit rhs = andLit(g, ~a, ~b);
    // Canonicalization should collapse these to the same literal.
    EXPECT_EQ(lhs, rhs);
    EXPECT_EQ(GraphMiter(g, lhs, rhs).verdict, sat::Verdict::kUnsat);
  }
  {
    // Near-equivalent pair must stay SAT: a & b vs a | b differ at a!=b.
    symfe::ProofGraph g;
    const symfe::NodeLit a = input(g, "a"), b = input(g, "b");
    GraphMiter m(g, andLit(g, a, b), orLit(g, a, b));
    EXPECT_EQ(m.verdict, sat::Verdict::kSat);
    EXPECT_NE(m.value(a), m.value(b));
  }
}

TEST(Sat, IteEncodingMatchesSemantics) {
  // Exhaustive check of the ite node against its defining table.
  for (int row = 0; row < 8; ++row) {
    symfe::ProofGraph g;
    const symfe::NodeLit sl = input(g, "s"), t = input(g, "t"),
                         el = input(g, "e");
    const symfe::NodeLit out = g.iteLit(sl, t, el);
    sat::Solver s;
    symfe::Cnf cnf(g, s);
    const sat::Lit o = cnf.lit(out);
    const bool sv = (row & 1) != 0, tv = (row & 2) != 0, ev = (row & 4) != 0;
    s.addClause(sv ? cnf.lit(sl) : ~cnf.lit(sl));
    s.addClause(tv ? cnf.lit(t) : ~cnf.lit(t));
    s.addClause(ev ? cnf.lit(el) : ~cnf.lit(el));
    ASSERT_EQ(s.solve(), sat::Verdict::kSat) << "row " << row;
    const bool expect = sv ? tv : ev;
    ASSERT_EQ(s.modelValue(sat::varOf(o)) != sat::signOf(o), expect)
        << "row " << row;
  }
}

TEST(Sat, GraphNodesComputeTheirTables) {
  // Random tables over up to 6 inputs drawn from 4 leaves, their
  // complements and the constants (so cofactoring, merging, vacuous
  // inputs, phase flips and input sorting all run): under every leaf
  // assignment the node's CNF must yield the table's row.
  desync::util::Rng rng{7};
  for (int round = 0; round < 300; ++round) {
    symfe::ProofGraph g;
    symfe::NodeLit leaves[4];
    for (int i = 0; i < 4; ++i) leaves[i] = input(g, "l" + std::to_string(i));
    const unsigned n = static_cast<unsigned>(rng.range(1, 6));
    std::vector<symfe::NodeLit> in(n);
    std::vector<int> pick(n);
    for (unsigned k = 0; k < n; ++k) {
      pick[k] = rng.range(0, 9);  // 0-3 leaf, 4-7 ~leaf, 8-9 constant
      in[k] = pick[k] < 4   ? leaves[pick[k]]
              : pick[k] < 8 ? ~leaves[pick[k] - 4]
                            : (pick[k] == 9 ? symfe::kTrue : symfe::kFalse);
    }
    const std::uint64_t t = rng();
    const symfe::NodeLit out = g.table(t, in);
    for (unsigned a = 0; a < 16; ++a) {
      unsigned row = 0;
      for (unsigned k = 0; k < n; ++k) {
        const bool v = pick[k] < 4   ? ((a >> pick[k]) & 1) != 0
                       : pick[k] < 8 ? ((a >> (pick[k] - 4)) & 1) == 0
                                     : pick[k] == 9;
        if (v) row |= 1u << k;
      }
      sat::Solver s;
      symfe::Cnf cnf(g, s);
      const sat::Lit o = cnf.lit(out);
      for (int i = 0; i < 4; ++i) {
        const sat::Lit l = cnf.lit(leaves[i]);
        s.addClause(((a >> i) & 1) != 0 ? l : ~l);
      }
      ASSERT_EQ(s.solve(), sat::Verdict::kSat);
      ASSERT_EQ(s.modelValue(sat::varOf(o)) != sat::signOf(o),
                ((t >> row) & 1) != 0)
          << "round " << round << " assignment " << a;
    }
  }
}

TEST(Sat, GraphHashesDependOnContentNotBuildOrder) {
  // The same cone built in a fresh graph and after unrelated nodes (which
  // shift every node id) has one content hash and one CNF size; inputs
  // are ordered by content hash, so pin order does not matter either.
  const auto cone = [](symfe::ProofGraph& g, bool swap) {
    const symfe::NodeLit a = input(g, "a"), b = input(g, "b");
    const symfe::NodeLit x = swap ? xorLit(g, b, a) : xorLit(g, a, b);
    return g.iteLit(input(g, "s"), x, ~andLit(g, a, b));
  };
  symfe::ProofGraph fresh;
  const symfe::NodeLit l1 = cone(fresh, false);
  symfe::ProofGraph busy;
  for (int i = 0; i < 5; ++i) {
    orLit(busy, input(busy, "u" + std::to_string(i)), input(busy, "b"));
  }
  const symfe::NodeLit l2 = cone(busy, true);
  EXPECT_NE(l1.node(), l2.node());
  EXPECT_EQ(fresh.hash(l1), busy.hash(l2));
  EXPECT_NE(fresh.hash(l1), fresh.hash(~l1));
  sat::Solver s1, s2;
  symfe::Cnf c1(fresh, s1), c2(busy, s2);
  EXPECT_EQ(c1.lit(l1), c2.lit(l2));
  EXPECT_EQ(s1.numVars(), s2.numVars());
}

TEST(Sat, CollidingContentHashesStayDistinctNodes) {
  // Hashes fold names eight bytes per multiply by an odd prime, so two
  // one-word names that differ only in the top bit of their last byte
  // hash to leaves differing only in bit 63 of both lanes — and a node
  // absorbing either leaf's two lanes cancels that difference.  An equal
  // content hash must not merge two different functions into one node.
  symfe::ProofGraph g;
  const symfe::NodeLit a = input(g, "abcdefgh");
  const symfe::NodeLit b = input(g, "abcdefg\xe8");
  ASSERT_NE(a, b);
  EXPECT_EQ(g.findLeaf(symfe::LeafKind::kInput, "abcdefg\xe8"), b);
  constexpr std::uint64_t kTop = std::uint64_t{1} << 63;
  ASSERT_EQ(g.hash(a).hi ^ g.hash(b).hi, kTop);
  ASSERT_EQ(g.hash(a).lo ^ g.hash(b).lo, kTop);
  bool collided = false;
  for (int i = 0; i < 16 && !collided; ++i) {
    // The AND nodes' hashes collide when x sorts on one side of both.
    const symfe::NodeLit x = input(g, "x" + std::to_string(i));
    const symfe::NodeLit p = andLit(g, a, x), q = andLit(g, b, x);
    if (g.hash(p) != g.hash(q)) continue;
    collided = true;
    EXPECT_NE(p, q);
    GraphMiter m(g, p, q);
    EXPECT_EQ(m.verdict, sat::Verdict::kSat);
    EXPECT_NE(m.value(a), m.value(b));
  }
  EXPECT_TRUE(collided);
}

}  // namespace
