package repro.core

import org.apache.spark.sql.SparkSession

import repro.baselines.Baselines
import repro.discovery.JoinDiscovery
import repro.lake.Scenario
import repro.profile.{Profiler, Profiles}

/** End-to-end orchestration of one scenario: discovery (the lake's key
  * cells probed against an index of the input's key values) → profiling
  * (one driver-side estimator for every candidate over sample rows read and
  * parsed from the Γ columns, which it materialises with driver-side joins,
  * so the Γ prefetch after it finds every column in the memo) → run METAM
  * and the baselines under a shared query budget. None of these runs a
  * Spark job; the `spark` parameters are unused and kept for the callers.
  * Scenario generation, discovery and profiling spread their per-table and
  * per-candidate work over the driver's cores and give the same bits as
  * one thread would; the search runs on one thread. The augment engine (and
  * its memoised Γ materialisations) is shared across methods — a query's
  * *count* is per-method, its join is paid once, exactly as one
  * server-side cache would serve all competitors.
  */
object Runner {

  /** METAM and the three Table II baselines, in the order results are reported. */
  val DefaultMethods: Vector[String] = Vector("METAM", "MW", "Overlap", "Uniform")

  /** Full outcome of one scenario run. */
  final case class ScenarioRun(
      scenario: Scenario,
      candidates: Vector[Candidate],
      profiles: Profiles,
      results: Map[String, SearchResult],
  )

  /** Discover and profile candidates for `scenario` (no querying yet).
    * A lake with nothing joinable gives no candidates, and every method
    * then returns the input's own utility.
    */
  def prepare(spark: SparkSession, scenario: Scenario,
              minContainment: Double = 0.03, maxHops: Int = 1,
             ): (AugmentEngine, Vector[Candidate], Profiles) = {
    val engine = new AugmentEngine(spark, scenario.input, scenario.lake)
    val candidates = JoinDiscovery.candidatesFor(spark, scenario.input, scenario.lake, minContainment, maxHops)
    val profiles = Profiler.profileAll(spark, engine, candidates, scenario.profileTargetCol)
    engine.prefetch(candidates)
    (engine, candidates, profiles)
  }

  /** Run the named methods with a fresh budget each over one scenario. */
  def run(
      spark: SparkSession,
      scenario: Scenario,
      theta: Double,
      budget: Int,
      methods: Seq[String] = DefaultMethods,
      metamCfg: MetamConfig = MetamConfig(),
      seed: Long = 4242,
  ): ScenarioRun = {
    val (engine, candidates, profiles) = prepare(spark, scenario)
    val results = methods.map { m =>
      val util = new CountingUtility(engine, scenario.task, budget)
      val res = m match {
        case "METAM" => Metam.run(candidates, profiles, util, metamCfg.copy(theta = theta))
        case "MW" => Baselines.multiplicativeWeights(candidates, profiles, util, theta, seed = seed)
        case "Overlap" => Baselines.overlapRanking(candidates, profiles, util, theta)
        case "Uniform" => Baselines.uniformSampling(candidates, util, theta, seed)
        case other => sys.error(s"unknown method $other")
      }
      m -> res
    }.toMap
    ScenarioRun(scenario, candidates, profiles, results)
  }
}
