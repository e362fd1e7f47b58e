package repro.core

import org.scalacheck.{Gen, Prop}
import org.scalacheck.Prop.propBoolean

import repro.{PropSupport, SparkSpec}
import repro.baselines.Baselines

/** Invariants that METAM and every baseline keep on small random
  * set-function environments, at query budgets 0, 1 and 30. The utility
  * of a selection is an arbitrary value per subset, so it need be neither
  * monotone nor additive, and profiles lie on a coarse grid, so
  * candidates often share a profile and a cluster.
  */
class SearchInvariantsSpec extends SparkSpec with PropSupport {
  import SearchInvariantsSpec.World

  private val Budgets = Seq(0, 1, 30)

  private val worlds: Gen[World] = for {
    n <- Gen.choose(1, 6)
    utilities <- Gen.listOfN(1 << n, Gen.choose(0, 10).map(_ / 10.0))
    profiles <- Gen.listOfN(n, Gen.listOfN(5, Gen.choose(0, 4).map(_ / 4.0)).map(_.toArray))
    theta <- Gen.choose(0.3, 1.0)
    seed <- Gen.choose(0L, 1000L)
  } yield World(n, utilities.toVector, profiles.toVector, theta, seed)

  private def search(method: String, env: TestEnv.Env, w: World, budget: Int): SearchResult = {
    val util = env.util(budget)
    method match {
      case "METAM" => Metam.run(env.cands, env.profiles, util, MetamConfig(theta = w.theta, seed = w.seed))
      case "MW" => Baselines.multiplicativeWeights(env.cands, env.profiles, util, w.theta, seed = w.seed)
      case "Overlap" => Baselines.overlapRanking(env.cands, env.profiles, util, w.theta)
      case "Uniform" => Baselines.uniformSampling(env.cands, util, w.theta, w.seed)
    }
  }

  test("every method stays within budget, reports a monotone curve and repeats exactly") {
    checkProp(Prop.forAll(worlds) { w =>
      val env = TestEnv.build(spark, w.n, s => w.utilities(s.foldLeft(0)((m, i) => m | (1 << i))), w.profiles)
      val checks = for (m <- Runner.DefaultMethods; b <- Budgets) yield {
        val r = search(m, env, w, b)
        val again = search(m, env, w, b)
        val qs = r.curve.map(_._1)
        val us = r.curve.map(_._2)
        val curveMax = if (us.isEmpty) 0.0 else us.max
        s"$m at budget $b: ${r.queriesUsed} queries, utility ${r.utility}, curve ${r.curve}" |: Prop.all(
          (r.queriesUsed <= b) :| "queries within the budget",
          qs.zip(qs.drop(1)).forall { case (a, c) => c > a } :| "curve strictly increasing in queries",
          us.zip(us.drop(1)).forall { case (a, c) => c >= a } :| "curve non-decreasing in utility",
          (r.utility <= curveMax) :| "returned utility at most the curve maximum",
          (again.solution.map(_.id) == r.solution.map(_.id)) :| "same solution on a second run",
          (again.utility == r.utility) :| "same utility on a second run",
          (again.curve == r.curve) :| "same curve on a second run",
        )
      }
      Prop.all(checks: _*)
    }, tries = 40)
  }
}

object SearchInvariantsSpec {

  /** `n` candidates; the utility of the tables S is `utilities(Σ_{i∈S} 2^i)`. */
  final case class World(
      n: Int,
      utilities: Vector[Double],
      profiles: Vector[Array[Double]],
      theta: Double,
      seed: Long,
  )
}
