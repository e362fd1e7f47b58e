package repro.lake

import scala.collection.parallel.CollectionConverters._
import scala.util.Random

import repro.tasks.{Task, Tasks}

/** Kind of downstream task a scenario evaluates. */
sealed trait TaskKind
object TaskKind {
  case object Causal extends TaskKind
  case object Classification extends TaskKind
  case object Regression extends TaskKind
}

/** Knobs of the semi-synthetic generator (§VI-A(3) of the paper: planted
  * ground-truth augmentations inside a repository of irrelevant, duplicate
  * and erroneous candidates).
  *
  * @param nSignals          k — planted informative tables (the optimal set)
  * @param dupsPerPlanted    near-duplicates of each planted table (P2 structure)
  * @param nIrrelevant       correct-join but uninformative tables
  * @param nIrrelevantDups   near-duplicates of irrelevant tables
  * @param nTopicIrrelevant  irrelevant tables sharing D_in's topic vocabulary
  *                          (confound the semantic profile)
  * @param nErroneous        spurious join paths (wrong keys; mostly-null joins)
  */
final case class ScenarioSpec(
    name: String,
    kind: TaskKind,
    rows: Int = 500,
    nSignals: Int = 4,
    dupsPerPlanted: Int = 2,
    nIrrelevant: Int = 80,
    nIrrelevantDups: Int = 40,
    nTopicIrrelevant: Int = 15,
    nErroneous: Int = 60,
    targetNoise: Double = 0.4,
    seed: Long = 1234,
) {
  def totalCandidates: Int =
    nSignals * (1 + dupsPerPlanted) + nIrrelevant + nIrrelevantDups + nTopicIrrelevant + nErroneous
}

/** A fully-instantiated evaluation scenario: input table, repository,
  * ground truth and the black-box task.
  */
final case class Scenario(
    spec: ScenarioSpec,
    input: LakeTable,
    lake: Lake,
    profileTargetCol: String,
    task: Task,
    tableSignal: Map[String, Int],
) {
  /** Ground-truth signal carried by an augmented column, if any. */
  def signalOf(colName: String): Option[Int] = Scenario.signalOf(tableSignal)(colName)

  def groundTruthTables: Set[String] = tableSignal.keySet
}

object Scenario {

  /** The signal of the planted table an augmented column was joined from,
    * by its `__table__` name part, if `tableSignal` plants one.
    */
  def signalOf(tableSignal: Map[String, Int])(colName: String): Option[Int] =
    tableSignal.collectFirst { case (t, s) if colName.contains(s"__${t}__") => s }
}

/** Deterministic generator for all evaluation scenarios.
  *
  * Every generator makes all its random draws on the calling thread, in
  * one fixed order, into `Draft`s; the cells are formatted
  * afterwards by `Draft.build`, the lake's tables one per task on the
  * parallel collections' default pool, kept in the order they were drawn.
  */
object ScenarioGen {

  private val Sources = Vector("portal_nyc", "portal_chi", "portal_kaggle")

  /** Fraction of D_in keys covered by planted tables (slightly below the
    * irrelevant tables' full coverage, so overlap ranking is misled).
    */
  private[repro] val PlantedCoverage = 0.85

  /** Fraction of an erroneous table's keys that accidentally match D_in
    * (lets approximate discovery admit it).
    */
  private val ErroneousOverlap = 0.08

  /** Noise added to a planted table's signal, and to a duplicate's copy. */
  private val PlantedNoise = 0.1
  private val DupNoise = 0.15

  private def gaussians(rnd: Random, n: Int): Array[Double] = Array.fill(n)(rnd.nextGaussian())

  /** `i` (≥ 0) in decimal, zero-padded on the left to `width` digits, as
    * `%0<width>d` formats it.
    */
  private def padded(i: Int, width: Int): String = {
    val s = Integer.toString(i)
    if (s.length >= width) s else "0" * (width - s.length) + s
  }

  /** The input's `i`-th join key, `K00042`. */
  private def key(i: Int): String = "K" + padded(i, 5)

  /** Row `r`'s key of erroneous table `j` (outside the input's keys), `X007_00042`. */
  private def errorKey(j: Int, r: Int): String = "X" + padded(j, 3) + "_" + padded(r, 5)

  /** A generated table as drawn, before its cells are formatted: row `r`
    * holds key `keyAt(r)` and, in each column `(name, cell)`, `cell(r)`.
    */
  private final case class Draft(meta: TableMeta, rows: Int, keyAt: Int => String, cols: (String, Int => String)*) {
    def build: LakeTable = LakeTable(meta, (("key", keyAt) +: cols.toVector).map { case (name, cell) =>
      name -> Array.tabulate[Option[String]](rows)(r => Some(cell(r)))
    })
  }

  /** Cells of drawn numbers, as `Double.toString` formats them. */
  private def numbers(xs: Array[Double]): Int => String = r => xs(r).toString

  /** The lake of `drafts`, built one table per task, in draft order. */
  private def lakeOf(drafts: Vector[Draft]): Lake = Lake(drafts.par.map(_.build).seq)

  private def meta(name: String, source: String, vocab: Vector[String]): TableMeta =
    TableMeta(name, source, Vector("key"), vocab)

  /** Metadata with a random source, then `tokens` random vocabulary tokens. */
  private def randomMeta(name: String, rnd: Random, tokens: Int = 4): TableMeta =
    meta(name, Sources(rnd.nextInt(Sources.length)), Vector.fill(tokens)(s"rand${rnd.nextInt(100000)}"))

  /** The rows of `0 until n` each kept with probability `coverage`. */
  private def covered(n: Int, coverage: Double, rnd: Random): Array[Int] =
    (0 until n).filter(_ => rnd.nextDouble() < coverage).toArray

  /** An irrelevant table: random metadata, then a fresh Gaussian for every key. */
  private def irrelevant(name: String, valueCol: String, keys: Array[String], rnd: Random, tokens: Int = 4): Draft = {
    val m = randomMeta(name, rnd, tokens)
    Draft(m, keys.length, keys(_), valueCol -> numbers(gaussians(rnd, keys.length)))
  }

  /** Erroneous table `j`: each row matches a random input key with
    * probability `ErroneousOverlap`, else has its own key; then random
    * metadata and a fresh Gaussian per row.
    */
  private def erroneous(name: String, valueCol: String, j: Int, keys: Array[String], rnd: Random): Draft = {
    val n = keys.length
    // The input key each row matches, or −1 for the table's own key.
    val matched = Array.tabulate(n)(_ => if (rnd.nextDouble() < ErroneousOverlap) rnd.nextInt(n) else -1)
    val m = randomMeta(name, rnd)
    Draft(m, n, r => if (matched(r) >= 0) keys(matched(r)) else errorKey(j, r), valueCol -> numbers(gaussians(rnd, n)))
  }

  /** Build the generic planted-signal scenario for `spec`. */
  def scenario(spec: ScenarioSpec): Scenario = {
    val rnd = new Random(spec.seed)
    val n = spec.rows
    val k = spec.nSignals
    val keys = Array.tabulate(n)(key)
    val signals = Vector.fill(k)(gaussians(rnd, n))
    val zRaw = Array.tabulate(n)(i => signals.map(_(i)).sum + spec.targetNoise * math.sqrt(k.toDouble) * rnd.nextGaussian())

    val (targetCol, targetVals) = spec.kind match {
      case TaskKind.Classification =>
        val med = zRaw.sorted.apply(n / 2)
        ("target", zRaw.map(z => if (z > med) 1.0 else 0.0))
      case TaskKind.Regression =>
        val ranks = zRaw.zipWithIndex.sortBy(_._1).map(_._2).zipWithIndex.toMap
        ("outcome", Array.tabulate(n)(i => ranks(i).toDouble / math.max(1, n - 1)))
      case TaskKind.Causal =>
        ("outcome", zRaw)
    }

    val topic = Vector.tabulate(5)(i => s"${spec.name}_topic$i") ++ Vector("city", "year", "data")
    val input = Draft(meta(s"${spec.name}_input", Sources.head, topic), n, keys(_),
      "bf1" -> numbers(gaussians(rnd, n)), "bf2" -> numbers(gaussians(rnd, n)), targetCol -> numbers(targetVals))

    val tables = Vector.newBuilder[Draft]
    val tableSignal = Map.newBuilder[String, Int]

    // Planted informative tables + near-duplicates (carry the same signal).
    def planted(name: String, i: Int, source: Int, noise: Double): Unit = {
      val cov = covered(n, PlantedCoverage, rnd)
      val vocab = topic.take(3) ++ Vector(s"${spec.name}_sig$i", "stats")
      val values = cov.map(r => signals(i)(r) + noise * rnd.nextGaussian())
      tables += Draft(meta(name, Sources(source % Sources.length), vocab), cov.length, r => keys(cov(r)),
        f"feat$i%02d" -> numbers(values))
      tableSignal += name -> i
    }
    for (i <- 0 until k) {
      planted(f"${spec.name}%s_sig$i%02d", i, i, PlantedNoise)
      for (d <- 0 until spec.dupsPerPlanted) planted(f"${spec.name}%s_sig$i%02d_dup$d", i, i + d, DupNoise)
    }

    // Topic-sharing but uninformative tables: same topic-token overlap with
    // D_in as the planted tables, so the semantic profile alone cannot
    // separate useful from useless (the paper's premise that no single
    // profile ranks well).
    for (j <- 0 until spec.nTopicIrrelevant) {
      val vocab = topic.take(3) ++ Vector(s"extra$j", "stats")
      tables += Draft(meta(f"${spec.name}%s_topicirr$j%03d", Sources(j % Sources.length), vocab), n, keys(_),
        f"tmetric$j%03d" -> numbers(gaussians(rnd, n)))
    }

    // Irrelevant tables: correct joins, full coverage, random vocabulary.
    val irrValues = Vector.fill(spec.nIrrelevant)(gaussians(rnd, n))
    for (j <- 0 until spec.nIrrelevant) {
      val m = randomMeta(f"${spec.name}%s_irr$j%03d", rnd)
      tables += Draft(m, n, keys(_), f"metric$j%03d" -> numbers(irrValues(j)))
    }
    for (d <- 0 until spec.nIrrelevantDups) {
      val j = d % math.max(1, spec.nIrrelevant)
      val m = randomMeta(f"${spec.name}%s_irr$j%03d_dup$d", rnd)
      tables += Draft(m, n, keys(_), f"metric$j%03d" -> numbers(irrValues(j).map(_ + DupNoise * rnd.nextGaussian())))
    }

    // Erroneous join paths: keys mostly outside D_in's domain.
    for (j <- 0 until spec.nErroneous) tables += erroneous(f"${spec.name}%s_err$j%03d", f"emetric$j%03d", j, keys, rnd)

    val signalMap = tableSignal.result()
    val task: Task = spec.kind match {
      case TaskKind.Causal =>
        Tasks.CausalTask(spec.name, targetCol, Set("key"), Scenario.signalOf(signalMap), k)
      case TaskKind.Classification =>
        Tasks.ClassificationTask(spec.name, targetCol, Set("key"))
      case TaskKind.Regression =>
        Tasks.RegressionTask(spec.name, targetCol, Set("key"))
    }

    Scenario(spec, input.build, lakeOf(tables.result()), targetCol, task, signalMap)
  }

  /** The six Table II scenarios: four causal-analysis datasets (labelled
    * "(C)" in the paper) and two data-analytics (classification) ones.
    * Candidate counts are the paper's magnitudes scaled to bench size;
    * the Schools scenario keeps the paper's ~60% erroneous candidates.
    */
  def tableII(seed: Long = 2023): Vector[Scenario] = Vector(
    scenario(ScenarioSpec("schools", TaskKind.Causal, rows = 350, nSignals = 5, dupsPerPlanted = 1,
      nIrrelevant = 250, nIrrelevantDups = 130, nTopicIrrelevant = 130, nErroneous = 780, seed = seed + 1)),
    scenario(ScenarioSpec("taxi", TaskKind.Causal, rows = 350, nSignals = 2, dupsPerPlanted = 1,
      nIrrelevant = 350, nIrrelevantDups = 180, nTopicIrrelevant = 150, nErroneous = 250, seed = seed + 2)),
    scenario(ScenarioSpec("crime", TaskKind.Causal, rows = 350, nSignals = 10, dupsPerPlanted = 1,
      nIrrelevant = 350, nIrrelevantDups = 180, nTopicIrrelevant = 150, nErroneous = 250, seed = seed + 3)),
    scenario(ScenarioSpec("housing", TaskKind.Causal, rows = 350, nSignals = 4, dupsPerPlanted = 1,
      nIrrelevant = 350, nIrrelevantDups = 180, nTopicIrrelevant = 150, nErroneous = 250, seed = seed + 4)),
    scenario(ScenarioSpec("pharmacy", TaskKind.Classification, rows = 350, nSignals = 2, dupsPerPlanted = 1,
      nIrrelevant = 350, nIrrelevantDups = 180, nTopicIrrelevant = 150, nErroneous = 250,
      targetNoise = 0.25, seed = seed + 5)),
    scenario(ScenarioSpec("grocery", TaskKind.Classification, rows = 350, nSignals = 3, dupsPerPlanted = 1,
      nIrrelevant = 350, nIrrelevantDups = 180, nTopicIrrelevant = 150, nErroneous = 250,
      targetNoise = 0.25, seed = seed + 6)),
  )

  /** Entity-linking scenario (§VI-A-4): ambiguous city mentions need an
    * augmented disambiguating (state) column; ~185 candidates as in the
    * paper's Kaggle experiment.
    */
  def entityLinking(seed: Long = 5150): Scenario = {
    val rnd = new Random(seed)
    val n = 200
    val nCities = 40
    val cities = Vector.tabulate(nCities)(i => f"City$i%02d")
    val ambiguous = cities.take(nCities / 2).toSet
    val states = Vector("AL", "NY", "IL", "CA", "TX", "WA")

    // KB: ambiguous cities have two entities in different states.
    val kb: Map[String, Vector[(String, String)]] = cities.map { c =>
      if (ambiguous(c)) {
        val s1 = states(rnd.nextInt(states.length))
        val s2 = states.filterNot(_ == s1)(rnd.nextInt(states.length - 1))
        c -> Vector((s"${c}_$s1", s1), (s"${c}_$s2", s2))
      } else {
        val s = states(rnd.nextInt(states.length))
        c -> Vector((s"${c}_$s", s))
      }
    }.toMap

    val keys = Array.tabulate(n)(key)
    val rowCity = Array.fill(n)(cities(rnd.nextInt(nCities)))
    val rowEntity = rowCity.map { c =>
      val entries = kb(c)
      entries(rnd.nextInt(entries.length))
    }
    val truth = rowEntity.map(_._1)
    val input = Draft(meta("cdc_cities", Sources.head, Vector("city", "state", "geo", "census")), n, keys(_),
      "city" -> (rowCity(_)), "metric" -> numbers(gaussians(rnd, n)))

    // The ground-truth augmentation: per-row state of the true entity.
    // Named to sort after the kaggle_* tables so overlap ranking (which
    // ties at full coverage) does not find it by id-order luck.
    val stateLookup = Draft(meta("state_lookup", Sources.head, Vector("city", "state", "geo", "abbrev")), n, keys(_),
      "state" -> (r => rowEntity(r)._2))
    val irr = Vector.tabulate(150)(j => irrelevant(f"kaggle_irr$j%03d", f"metric$j%03d", keys, rnd))
    val err = Vector.tabulate(34)(j => erroneous(f"kaggle_err$j%03d", f"emetric$j%03d", j, keys, rnd))

    val task = Tasks.EntityLinkingTask("entity_linking", "city", kb, truth, Set("key", "metric"))
    Scenario(
      ScenarioSpec("entity_linking", TaskKind.Classification, rows = n, seed = seed),
      input.build, lakeOf(stateLookup +: (irr ++ err)), "metric", task, Map("state_lookup" -> 0),
    )
  }

  /** Fair-classification scenario (§VI-A-4, German-credit style): many
    * high-correlation-but-unfair candidates (discarded by the task's fair
    * feature selection) cluster together; the few fair-and-predictive
    * candidates are what METAM must find.
    */
  def fairClassification(seed: Long = 6160): Scenario = {
    val rnd = new Random(seed)
    val n = 500
    val keys = Array.tabulate(n)(key)
    // Continuous sensitive attribute (e.g. age) with the dominant
    // coefficient: the *unfair* candidates top every correlation ranking
    // ("attributes highly correlated with the target are highly unfair"),
    // while the fair signals are what actually helps the task.
    val sensitive = gaussians(rnd, n)
    val fairSignals = Vector(gaussians(rnd, n), gaussians(rnd, n))
    val z = Array.tabulate(n)(i =>
      fairSignals(0)(i) + fairSignals(1)(i) + 2.0 * sensitive(i) + 0.3 * rnd.nextGaussian())
    val med = z.sorted.apply(n / 2)
    val y = z.map(v => if (v > med) 1.0 else 0.0)

    val topic = Vector("credit", "income", "demographics")
    val input = Draft(meta("credit_input", Sources.head, topic), n, keys(_),
      "sensitive" -> numbers(sensitive), "bf1" -> numbers(gaussians(rnd, n)), "target" -> numbers(y))

    // Unfair candidates: near-copies of the sensitive attribute — highly
    // correlated with the target, but discarded by the task.
    val unfair = Vector.tabulate(60)(j =>
      Draft(meta(f"credit_unfair$j%02d", Sources(j % Sources.length), topic ++ Vector("age")), n, keys(_),
        f"ufeat$j%02d" -> numbers(sensitive.map(_ + 0.15 * rnd.nextGaussian()))))
    // Fair candidates: carry the fair signals, uncorrelated with sensitive.
    // Coverage is slightly below full so overlap ranking (ties broken by
    // id) puts the full-coverage unfair/irrelevant candidates first.
    val fair = Vector.tabulate(2) { j =>
      val cov = covered(n, 0.9, rnd)
      val values = cov.map(i => fairSignals(j)(i) + 0.2 * rnd.nextGaussian())
      Draft(meta(f"credit_fair$j%02d", Sources(j % Sources.length), topic.take(1) ++ Vector("savings", "thrift")),
        cov.length, r => keys(cov(r)), f"ffeat$j%02d" -> numbers(values))
    }
    val irr = Vector.tabulate(120)(j => irrelevant(f"credit_irr$j%03d", f"metric$j%03d", keys, rnd))

    val task = Tasks.FairClassificationTask("fair_credit", "target", "sensitive", Set("key"))
    Scenario(
      ScenarioSpec("fair_credit", TaskKind.Classification, rows = n, seed = seed),
      input.build, lakeOf(unfair ++ fair ++ irr), "target", task, fair.map(_.meta.name).zipWithIndex.toMap,
    )
  }

  /** Clustering scenario (§VI-A-4, satiety-score products): 8 candidates,
    * one of which (the ONI score) aligns with the true grouping.
    */
  def clusteringScenario(seed: Long = 7170): Scenario = {
    val rnd = new Random(seed)
    val n = 120
    val keys = Array.tabulate(n)(key)
    val category = Array.fill(n)(rnd.nextInt(3))
    val satiety = category.map(c => c + 1.2 * rnd.nextGaussian())

    val topic = Vector("food", "nutrition", "ingredient")
    val input = Draft(meta("products", Sources.head, topic), n, keys(_), "satiety" -> numbers(satiety))
    val oni = Draft(meta("oni_scores", Sources.head, topic :+ "oni"), n, keys(_),
      "oni" -> numbers(category.map(c => c * 2.0 + 0.05 * rnd.nextGaussian())))
    val irr = Vector.tabulate(7)(j => irrelevant(f"food_irr$j%02d", f"metric$j%02d", keys, rnd, tokens = 3))

    val task = Tasks.ClusteringTask("satiety_clustering", 3, Set("key"))
    Scenario(
      ScenarioSpec("satiety_clustering", TaskKind.Classification, rows = n, seed = seed),
      input.build, lakeOf(oni +: irr), "satiety", task, Map("oni_scores" -> 0),
    )
  }
}
