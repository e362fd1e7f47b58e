package repro.baselines

import repro.SparkSpec
import repro.core.TestEnv

class BaselinesSpec extends SparkSpec {

  /** Table 0 is the single useful augmentation (+0.6 over a 0.2 base). */
  private def env(n: Int) = TestEnv.build(
    spark, n,
    s => 0.2 + (if (s.contains(0)) 0.6 else 0.0),
    i => if (i == 0) Array(0.9, 0.9, 0.5, 0.5, 0.2) else Array(0.1, 0.1, 0.5, 0.5, 0.9),
  )

  test("greedyOrdered keeps only improving candidates") {
    val e = env(5)
    val res = Baselines.greedyOrdered("X", e.cands, e.util(100), theta = 0.7)
    assert(res.solution.map(_.id) == Vector(0))
    assert(res.utility >= 0.7)
  }

  test("greedyOrdered stops at theta") {
    val e = env(20)
    val res = Baselines.greedyOrdered("X", e.cands, e.util(100), theta = 0.7)
    // Candidate 0 is first in the order → 1 base query + 1 probe + final memoised.
    assert(res.queriesUsed <= 3)
  }

  test("overlap ranking follows the overlap profile (useful table ranked last here)") {
    val e = env(10)
    val res = Baselines.overlapRanking(e.cands, e.profiles, e.util(100), theta = 0.7)
    // Overlap of candidate 0 is lowest → it is probed last → many queries.
    assert(res.queriesUsed >= 10)
    assert(res.utility >= 0.7)
  }

  test("uniform sampling is deterministic per seed and varies across seeds") {
    val e1 = env(20)
    val r1 = Baselines.uniformSampling(e1.cands, e1.util(100), 0.7, seed = 5)
    val e2 = env(20)
    val r2 = Baselines.uniformSampling(e2.cands, e2.util(100), 0.7, seed = 5)
    assert(r1.queriesUsed == r2.queriesUsed)
    val r3 = Baselines.uniformSampling(env(20).cands, env(20).util(100), 0.7, seed = 6)
    assert(r1.queriesUsed != r3.queriesUsed || r1.solution == r3.solution)
  }

  test("multiplicative weights finds the useful candidate via the corr expert") {
    val e = env(30)
    val res = Baselines.multiplicativeWeights(e.cands, e.profiles, e.util(200), theta = 0.7, seed = 11)
    assert(res.utility >= 0.7)
    assert(res.solution.map(_.id) == Vector(0))
  }

  test("multiplicative weights respects the budget") {
    val e = TestEnv.build(spark, 40, _ => 0.2)
    val res = Baselines.multiplicativeWeights(e.cands, e.profiles, e.util(10), theta = 0.9)
    assert(res.queriesUsed <= 10)
  }

  test("baseline curves are monotone non-decreasing") {
    val e = env(15)
    val res = Baselines.uniformSampling(e.cands, e.util(50), 0.95, seed = 3)
    val ys = res.curve.map(_._2)
    assert(ys.zip(ys.tail).forall { case (a, b) => b >= a })
  }
}
