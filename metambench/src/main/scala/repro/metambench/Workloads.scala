package repro.metambench

import org.apache.spark.sql.{DataFrame, SparkSession}
import org.apache.spark.sql.functions.col
import scala.collection.mutable

import repro.baselines.Baselines
import repro.core._
import repro.discovery.JoinDiscovery
import repro.jobs.TableIIJob
import repro.SynthData
import repro.lake.{RepoStats, Scenario, ScenarioGen, ScenarioSpec, TaskKind}
import repro.profile.{Profiler, Profiles}

/** What one method's run left behind in a pass. */
final case class MethodRun(scenario: String, method: String, result: SearchResult, budget: Int, theta: Double)

/** Everything one pass measured. */
final class PassOutcome {
  val runs = mutable.ArrayBuffer.empty[MethodRun]
  val latenciesMs = mutable.ArrayBuffer.empty[Double]
  val tasks = mutable.ArrayBuffer.empty[TimedTask]
  var candidates = 0L
  var clusters = 0L
  var columnsPrefetched = 0L
  var columnsUsed = 0L
  var searchMisses = 0L
  /** Prepared scenarios awaiting the reference checks, with their engine
    * (its Γ memo) and task, all kept reachable for the live-heap reading.
    */
  val prepared = mutable.ArrayBuffer.empty[Prepared]
  /** Table I characteristics computed in the pass. */
  val repoStats = mutable.ArrayBuffer.empty[RepoStats.Characteristics]
}

final case class Prepared(scenario: Scenario, engine: AugmentEngine, cands: Vector[Candidate], profiles: Profiles,
                          task: TimedTask)

/** Shared state of one benchmark run. */
final class Ctx(val spark: SparkSession, val tracer: Tracer, val checks: Checks, val seed: Long)

/** A workload: set up once (including warm-up), then timed passes, then
  * reference checks of what the passes produced.
  */
trait Workload {
  def setup(ctx: Ctx): Unit
  def pass(ctx: Ctx): PassOutcome
  def verify(ctx: Ctx, passes: Seq[PassOutcome]): Unit
  /** The seed used when none is given: the one the repository's bench uses. */
  def defaultSeed: Long = 2023L
}

object Workloads {

  val Methods: Vector[String] = TableIIJob.Methods
  val MinContainment = 0.03
  /** Seeds Runner.run gives MW and Uniform. */
  val MethodSeed = 4242L

  def byName(name: String): Option[Workload] = name match {
    case "table2" => Some(new Table2)
    case "search_paper_scale" => Some(new PaperScale)
    case "repo_stats" => Some(new RepoStatsWorkload)
    case _ => None
  }

  /** The dispatch of `Runner.run`, one method at a time. */
  def runMethod(m: String, cands: Vector[Candidate], profiles: Profiles, util: CountingUtility, theta: Double): SearchResult =
    m match {
      case "METAM" => Metam.run(cands, profiles, util, MetamConfig(theta = theta))
      case "MW" => Baselines.multiplicativeWeights(cands, profiles, util, theta, seed = MethodSeed)
      case "Overlap" => Baselines.overlapRanking(cands, profiles, util, theta)
      case "Uniform" => Baselines.uniformSampling(cands, util, theta, MethodSeed)
      case other => sys.error(s"unknown method $other")
    }

  /** `Runner.prepare`, split into its layers, each in its own span, when tracing. */
  def prepare(ctx: Ctx, s: Scenario): (AugmentEngine, Vector[Candidate], Profiles) =
    if (ctx.tracer.enabled) tracedPrepare(ctx, s) else Runner.prepare(ctx.spark, s, MinContainment, 1)

  /** `Runner.prepare` split into its layers, each in its own span. */
  def tracedPrepare(ctx: Ctx, s: Scenario): (AugmentEngine, Vector[Candidate], Profiles) = {
    val name = s.spec.name
    val engine = new AugmentEngine(ctx.spark, s.input, s.lake)
    val cands = ctx.tracer("discovery", name)(JoinDiscovery.candidatesFor(ctx.spark, s.input, s.lake, MinContainment, 1))
    val profiles = ctx.tracer("profile", name)(Profiler.profileAll(ctx.spark, engine, cands, s.profileTargetCol))
    ctx.tracer("augment.prefetch", name)(engine.prefetch(cands))
    (engine, cands, profiles)
  }

  /** Run every method on a prepared scenario with a fresh budget each, as
    * `Runner.run` does, timing and checking each; queries to `reportTheta`
    * are reported. In the traced run METAM's ε-cover is also computed once
    * beside it, in a `cluster` span.
    */
  def searchAll(ctx: Ctx, out: PassOutcome, s: Scenario, engine: AugmentEngine, cands: Vector[Candidate],
                profiles: Profiles, task: TimedTask, budget: Int, theta: Double, reportTheta: Double): Unit = {
    val name = s.spec.name
    val prefetched = engine.materializations
    Methods.foreach { m =>
      val util = new CountingUtility(engine, task, budget)
      if (m == "METAM" && ctx.tracer.enabled) {
        val cfg = MetamConfig(theta = theta)
        val cl = ctx.tracer("cluster", name)(ClusterPartition.cluster(cands.map(profiles.of), cfg.epsilon, cfg.seed))
        out.clusters += cl.nClusters
      }
      val from = task.calls
      ctx.checks.operation(s"$name/$m")(ctx.tracer(s"search.$m", name)(runMethod(m, cands, profiles, util, theta))).foreach { r =>
        out.latenciesMs ++= task.latenciesMs(from, task.calls)
        out.runs += MethodRun(name, m, r, budget, reportTheta)
        ctx.checks.searchResult(s"$name/$m", r, cands, budget, task.calls - from)
      }
    }
    out.searchMisses += engine.materializations - prefetched
    out.columnsPrefetched += prefetched
    out.columnsUsed += task.seenColumns.size
  }
}

/** `table2`: the Crime row of Table II at full Table II scale (350 rows,
  * about 950 candidates, 10 planted signals), prepared and searched with
  * METAM, MW, Overlap and Uniform at budget 250 and θ = 1.0, as the Table II
  * bench runs it. Its time goes to the Spark front end (discovery,
  * profiling, Γ prefetch); the causal task and the search loop take the rest.
  *
  * Each pass does what `Runner.run` does — `Runner.prepare`, then each
  * method with a fresh budget — but keeps the augment engine, so its Γ memo
  * is part of the live heap measured after the first pass.
  *
  * One of the six rows stands for the table: the full table takes about
  * 120 s warm, and one row about 15 s, while every run has to fit a fixed
  * time. The two random-forest rows could not stand in: their pass time
  * follows how many columns each seed's greedy searches keep (24 to 36 s for
  * Pharmacy over six seeds), more than the bounds allow between seeds.
  * Crime is also the row whose returned METAM solution falls short of its
  * curve.
  */
final class Table2 extends Workload {
  import Workloads._

  val Budget = 250

  /** The Crime row's spec exactly as `ScenarioGen.tableII(seed)` builds it
    * (keep the two in step). Built here on its own, because `tableII`
    * generates all six rows' lakes.
    */
  def spec(seed: Long): ScenarioSpec = ScenarioSpec("crime", TaskKind.Causal, rows = 350, nSignals = 10,
    dupsPerPlanted = 1, nIrrelevant = 350, nIrrelevantDups = 180, nTopicIrrelevant = 150, nErroneous = 250,
    seed = seed + 3)

  def setup(ctx: Ctx): Unit = {
    // Warm-up: JIT and Spark code generation on a small scenario of the
    // same shape, with the tracer off.
    val quiet = new Ctx(ctx.spark, new Tracer(false, ctx.spark.sparkContext), new Checks, ctx.seed)
    runScenario(quiet, new PassOutcome, ScenarioGen.scenario(spec(ctx.seed).copy(name = "warmup", nIrrelevant = 80,
      nIrrelevantDups = 40, nTopicIrrelevant = 30, nErroneous = 50, seed = ctx.seed + 103)), 60)
  }

  def pass(ctx: Ctx): PassOutcome = {
    val out = new PassOutcome
    val sp = spec(ctx.seed)
    ctx.tracer("pass", "table2") {
      val s = ctx.tracer("lake.gen", sp.name)(ScenarioGen.scenario(sp))
      runScenario(ctx, out, s, Budget)
    }
    out
  }

  private def runScenario(ctx: Ctx, out: PassOutcome, s0: Scenario, budget: Int): Unit = {
    val name = s0.spec.name
    val task = new TimedTask(s0.task, "causal", ctx.tracer, name)
    val s = s0.copy(task = task)
    val theta = TableIIJob.thetaFor(s)
    out.tasks += task
    ctx.checks.operation(s"$name/prepare")(prepare(ctx, s)).foreach { case (engine, cands, profiles) =>
      searchAll(ctx, out, s, engine, cands, profiles, task, budget, theta, theta)
      out.candidates += cands.size
      out.prepared += Prepared(s, engine, cands, profiles, task)
    }
  }

  def verify(ctx: Ctx, passes: Seq[PassOutcome]): Unit =
    passes.flatMap(_.prepared).foreach { p =>
      ctx.checks.candidates(p.scenario, p.cands, MinContainment)
      ctx.checks.augmentAndProfiles(p.scenario, p.cands, p.profiles, p.task.seenColumns, ctx.seed)
    }
}

/** `search_paper_scale`: one causal scenario at the paper's candidate scale
  * (n = 5030 candidates, 10 planted signals), prepared once during set-up.
  * Each pass runs METAM, MW, Overlap and Uniform at a 250-query budget.
  * Spark is idle in the passes: their time is METAM's per-probe bookkeeping
  * over all n candidates and the causal task.
  *
  * The candidate count, which sets the cost of each probe, is the paper's.
  * Tables have 100 rows, the profiler's sample size, so the once-per-run
  * prepare fits the run's time. The budget is a quarter of the paper's
  * 1000 queries, so a run fits three or four passes and reports their
  * median: single passes differ by 10 to 20% within a JVM on a shared
  * host. The search θ lies above the utility range, so every method spends
  * the whole budget and a pass is always 1000 queries: with θ = 1.0 METAM
  * stops after a seed-dependent number of queries, and the pass time would
  * measure that, not the code. Queries to θ = 1.0 are still reported from
  * the curve.
  */
final class PaperScale extends Workload {
  import Workloads._

  val Budget = 250
  val Theta = 1.0
  val SearchTheta = 1.01

  def spec(seed: Long): ScenarioSpec = ScenarioSpec("paper", TaskKind.Causal, rows = 100, nSignals = 10,
    dupsPerPlanted = 2, nIrrelevant = 1500, nIrrelevantDups = 800, nTopicIrrelevant = 700, nErroneous = 2000,
    seed = seed + 7)

  private var scenario: Scenario = _
  private var engine: AugmentEngine = _
  private var cands: Vector[Candidate] = _
  private var profiles: Profiles = _

  def setup(ctx: Ctx): Unit = {
    val tr = ctx.tracer
    scenario = tr("lake.gen", "paper")(ScenarioGen.scenario(spec(ctx.seed)))
    val (e, c, p) = prepare(ctx, scenario)
    engine = e; cands = c; profiles = p
    // Warm-up: an untimed pass of 300 queries per method, tracer off.
    val quiet = new Ctx(ctx.spark, new Tracer(false, ctx.spark.sparkContext), new Checks, ctx.seed)
    val task = new TimedTask(scenario.task, "causal", quiet.tracer, "warmup")
    searchAll(quiet, new PassOutcome, scenario, engine, cands, profiles, task, 300, SearchTheta, Theta)
  }

  def pass(ctx: Ctx): PassOutcome = {
    val out = new PassOutcome
    val task = new TimedTask(scenario.task, "causal", ctx.tracer, "paper")
    out.tasks += task
    ctx.tracer("pass", "paper")(searchAll(ctx, out, scenario, engine, cands, profiles, task, Budget, SearchTheta, Theta))
    out.candidates += cands.size
    out
  }

  def verify(ctx: Ctx, passes: Seq[PassOutcome]): Unit = {
    ctx.checks.candidates(scenario, cands, MinContainment)
    val seen = mutable.LinkedHashMap.empty[Int, Array[Option[String]]]
    passes.flatMap(_.tasks).foreach(_.seenColumns.foreach { case (id, col) => if (!seen.contains(id)) seen(id) = col })
    ctx.checks.augmentAndProfiles(scenario, cands, profiles, seen, ctx.seed)
  }
}

/** `repo_stats`: Table I, the characteristics of the two synthetic data
  * repositories (`RepoStats.characteristics` over `SynthData.repoCells` with
  * the shapes of `RepoStats.openDataLite` and `kaggleLite`: 690 and 195
  * tables, about 2.8M cells in all). It runs `JoinDiscovery.joinablePairsDf`
  * un-anchored, all column pairs of a whole repository, so a discovery
  * change aimed at the input-anchored 1-hop path of the other workloads
  * shows here if it costs the all-pairs use. The seed `s` seeds the Open
  * Data repository and `10 s` the Kaggle one; the default 6 gives the Table I
  * bench's seeds, 6 and 60.
  */
final class RepoStatsWorkload extends Workload {
  import RepoStatsWorkload.Repo

  val Repos: Vector[(Repo, Long)] = Vector(
    Repo("Open-Data-lite", nTables = 690, keyCols = 2, nDomains = 30, colSpread = 60, rowSpread = 80) -> 1L,
    Repo("Kaggle-lite", nTables = 195, keyCols = 3, nDomains = 12, colSpread = 70, rowSpread = 60) -> 10L,
  )
  /** The key columns `RepoStats.characteristics` runs discovery over. */
  val KeyCols: Seq[String] = Seq("col_0", "col_1", "col_2")
  val MinContainment = 0.5

  override def defaultSeed: Long = 6L

  def setup(ctx: Ctx): Unit = {
    // Warm-up: JIT and Spark code generation on the smaller repository's
    // shape, at another seed.
    val (kaggle, k) = Repos.last
    RepoStats.characteristics(ctx.spark, "warmup", kaggle.cells(ctx.spark, ctx.seed * k + 1), MinContainment)
    ()
  }

  def pass(ctx: Ctx): PassOutcome = {
    val out = new PassOutcome
    ctx.tracer("pass", "repo_stats") {
      Repos.foreach { case (r, k) =>
        val cells = ctx.tracer("lake.gen", r.name)(r.cells(ctx.spark, ctx.seed * k))
        ctx.checks.operation(s"${r.name}/characteristics") {
          ctx.tracer("discovery", r.name)(RepoStats.characteristics(ctx.spark, r.name, cells, MinContainment))
        }.foreach { c =>
          out.repoStats += c
          out.candidates += c.nJoinablePairs
        }
      }
    }
    out
  }

  /** Table and column counts against the shapes' formulas, and joinable
    * pairs against a driver inverted map over the key cells.
    */
  def verify(ctx: Ctx, passes: Seq[PassOutcome]): Unit =
    passes.head.repoStats.zip(Repos).foreach { case (c, (r, k)) =>
      val keyCells = r.cells(ctx.spark, ctx.seed * k).where(col("col").isin(KeyCols: _*))
        .select("table", "col", "value").collect().map(x => (x.getString(0), x.getString(1), x.getString(2)))
      ctx.checks.check(c.nTables == r.nTables, s"${r.name}: ${c.nTables} tables, expected ${r.nTables}")
      val nColumns = (0 until r.nTables).map(t => 11L + t % r.colSpread).sum
      ctx.checks.check(c.nColumns == nColumns, s"${r.name}: ${c.nColumns} columns, expected $nColumns")
      val pairs = Checks.joinablePairCount(keyCells, MinContainment)
      ctx.checks.check(c.nJoinablePairs == pairs, s"${r.name}: ${c.nJoinablePairs} joinable pairs, expected $pairs")
    }
}

object RepoStatsWorkload {

  /** The Table I repository shapes, as in `RepoStats` (keep the two in step). */
  final case class Repo(name: String, nTables: Int, keyCols: Int, nDomains: Int, colSpread: Int, rowSpread: Int) {
    def cells(spark: SparkSession, seed: Long): DataFrame =
      SynthData.repoCells(spark, nTables, keyCols, nDomains, colSpread = colSpread, rowSpread = rowSpread, seed = seed)
  }
}
