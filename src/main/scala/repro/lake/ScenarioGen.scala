package repro.lake

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

/** Deterministic generator for all evaluation scenarios. */
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

  private def key(i: Int): String = f"K$i%05d"

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
    val inputMeta = TableMeta(s"${spec.name}_input", Sources.head, Vector("key"), topic)
    val input = LakeTable(
      inputMeta,
      Vector(
        "key" -> keys.map(Option(_)),
        "bf1" -> gaussians(rnd, n).map(v => Option(v.toString)),
        "bf2" -> gaussians(rnd, n).map(v => Option(v.toString)),
        targetCol -> targetVals.map(v => Option(v.toString)),
      ),
    )

    val tables = Vector.newBuilder[LakeTable]
    val tableSignal = Map.newBuilder[String, Int]

    def numericTable(name: String, source: String, vocab: Vector[String], valueCol: String,
                     rowKeys: Array[String], values: Array[Double]): LakeTable =
      LakeTable(
        TableMeta(name, source, Vector("key"), vocab),
        Vector("key" -> rowKeys.map(Option(_)), valueCol -> values.map(v => Option(v.toString): Option[String])),
      )

    def covered(coverage: Double, r: Random): Array[Int] =
      (0 until n).filter(_ => r.nextDouble() < coverage).toArray

    // Planted informative tables + near-duplicates (carry the same signal).
    for (i <- 0 until k) {
      val cov = covered(PlantedCoverage, rnd)
      val name = f"${spec.name}%s_sig$i%02d"
      tables += numericTable(
        name, Sources(i % Sources.length),
        topic.take(3) ++ Vector(s"${spec.name}_sig$i", "stats"),
        f"feat$i%02d",
        cov.map(keys), cov.map(r => signals(i)(r) + PlantedNoise * rnd.nextGaussian()),
      )
      tableSignal += name -> i
      for (d <- 0 until spec.dupsPerPlanted) {
        val cov2 = covered(PlantedCoverage, rnd)
        val dn = f"${spec.name}%s_sig$i%02d_dup$d"
        tables += numericTable(
          dn, Sources((i + d) % Sources.length),
          topic.take(3) ++ Vector(s"${spec.name}_sig$i", "stats"),
          f"feat$i%02d",
          cov2.map(keys), cov2.map(r => signals(i)(r) + DupNoise * rnd.nextGaussian()),
        )
        tableSignal += dn -> i
      }
    }

    // Topic-sharing but uninformative tables: same topic-token overlap with
    // D_in as the planted tables, so the semantic profile alone cannot
    // separate useful from useless (the paper's premise that no single
    // profile ranks well).
    for (j <- 0 until spec.nTopicIrrelevant) {
      tables += numericTable(
        f"${spec.name}%s_topicirr$j%03d", Sources(j % Sources.length),
        topic.take(3) ++ Vector(s"extra$j", "stats"),
        f"tmetric$j%03d", keys, gaussians(rnd, n),
      )
    }

    // Irrelevant tables: correct joins, full coverage, random vocabulary.
    val irrValues = Vector.fill(spec.nIrrelevant)(gaussians(rnd, n))
    for (j <- 0 until spec.nIrrelevant) {
      tables += numericTable(
        f"${spec.name}%s_irr$j%03d", Sources(rnd.nextInt(Sources.length)),
        Vector.fill(4)(s"rand${rnd.nextInt(100000)}"),
        f"metric$j%03d", keys, irrValues(j),
      )
    }
    for (d <- 0 until spec.nIrrelevantDups) {
      val j = d % math.max(1, spec.nIrrelevant)
      tables += numericTable(
        f"${spec.name}%s_irr$j%03d_dup$d", Sources(rnd.nextInt(Sources.length)),
        Vector.fill(4)(s"rand${rnd.nextInt(100000)}"),
        f"metric$j%03d", keys, irrValues(j).map(_ + DupNoise * rnd.nextGaussian()),
      )
    }

    // Erroneous join paths: keys mostly outside D_in's domain.
    for (j <- 0 until spec.nErroneous) {
      val errKeys = Array.tabulate(n) { r =>
        if (rnd.nextDouble() < ErroneousOverlap) keys(rnd.nextInt(n)) else f"X${j}%03d_$r%05d"
      }
      tables += numericTable(
        f"${spec.name}%s_err$j%03d", Sources(rnd.nextInt(Sources.length)),
        Vector.fill(4)(s"rand${rnd.nextInt(100000)}"),
        f"emetric$j%03d", errKeys, gaussians(rnd, n),
      )
    }

    val signalMap = tableSignal.result()
    val lake = Lake(tables.result())

    val task: Task = spec.kind match {
      case TaskKind.Causal =>
        Tasks.CausalTask(spec.name, targetCol, Set("key"), Scenario.signalOf(signalMap), k)
      case TaskKind.Classification =>
        Tasks.ClassificationTask(spec.name, targetCol, Set("key"))
      case TaskKind.Regression =>
        Tasks.RegressionTask(spec.name, targetCol, Set("key"))
    }

    Scenario(spec, input, lake, targetCol, task, signalMap)
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
    val metric = gaussians(rnd, n)

    val topic = Vector("city", "state", "geo", "census")
    val input = LakeTable(
      TableMeta("cdc_cities", Sources.head, Vector("key"), topic),
      Vector(
        "key" -> keys.map(Option(_)),
        "city" -> rowCity.map(Option(_)),
        "metric" -> metric.map(v => Option(v.toString): Option[String]),
      ),
    )

    val tables = Vector.newBuilder[LakeTable]
    // The ground-truth augmentation: per-row state of the true entity.
    // Named to sort after the kaggle_* tables so overlap ranking (which
    // ties at full coverage) does not find it by id-order luck.
    tables += LakeTable(
      TableMeta("state_lookup", Sources.head, Vector("key"), Vector("city", "state", "geo", "abbrev")),
      Vector("key" -> keys.map(Option(_)), "state" -> rowEntity.map(e => Option(e._2): Option[String])),
    )
    for (j <- 0 until 150) {
      tables += LakeTable(
        TableMeta(f"kaggle_irr$j%03d", Sources(rnd.nextInt(Sources.length)), Vector("key"),
          Vector.fill(4)(s"rand${rnd.nextInt(100000)}")),
        Vector("key" -> keys.map(Option(_)),
          f"metric$j%03d" -> gaussians(rnd, n).map(v => Option(v.toString): Option[String])),
      )
    }
    for (j <- 0 until 34) {
      val errKeys = Array.tabulate(n)(r => if (rnd.nextDouble() < 0.08) keys(rnd.nextInt(n)) else f"X${j}%03d_$r%05d")
      tables += LakeTable(
        TableMeta(f"kaggle_err$j%03d", Sources(rnd.nextInt(Sources.length)), Vector("key"),
          Vector.fill(4)(s"rand${rnd.nextInt(100000)}")),
        Vector("key" -> errKeys.map(Option(_)),
          f"emetric$j%03d" -> gaussians(rnd, n).map(v => Option(v.toString): Option[String])),
      )
    }

    val task = Tasks.EntityLinkingTask("entity_linking", "city", kb, truth, Set("key", "metric"))
    Scenario(
      ScenarioSpec("entity_linking", TaskKind.Classification, rows = n, seed = seed),
      input, Lake(tables.result()), "metric", task, Map("state_lookup" -> 0),
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
    val input = LakeTable(
      TableMeta("credit_input", Sources.head, Vector("key"), topic),
      Vector(
        "key" -> keys.map(Option(_)),
        "sensitive" -> sensitive.map(v => Option(v.toString): Option[String]),
        "bf1" -> gaussians(rnd, n).map(v => Option(v.toString): Option[String]),
        "target" -> y.map(v => Option(v.toString): Option[String]),
      ),
    )

    val tables = Vector.newBuilder[LakeTable]
    val tableSignal = Map.newBuilder[String, Int]
    // Unfair candidates: near-copies of the sensitive attribute — highly
    // correlated with the target, but discarded by the task.
    for (j <- 0 until 60) {
      tables += LakeTable(
        TableMeta(f"credit_unfair$j%02d", Sources(j % Sources.length), Vector("key"), topic ++ Vector("age")),
        Vector("key" -> keys.map(Option(_)),
          f"ufeat$j%02d" -> sensitive.map(v => Option((v + 0.15 * rnd.nextGaussian()).toString): Option[String])),
      )
    }
    // Fair candidates: carry the fair signals, uncorrelated with sensitive.
    // Coverage is slightly below full so overlap ranking (ties broken by
    // id) puts the full-coverage unfair/irrelevant candidates first.
    for (j <- 0 until 2) {
      val name = f"credit_fair$j%02d"
      val cov = (0 until n).filter(_ => rnd.nextDouble() < 0.9).toArray
      tables += LakeTable(
        TableMeta(name, Sources(j % Sources.length), Vector("key"), topic.take(1) ++ Vector("savings", "thrift")),
        Vector("key" -> cov.map(i => Option(keys(i))),
          f"ffeat$j%02d" -> cov.map(i => Option((fairSignals(j)(i) + 0.2 * rnd.nextGaussian()).toString): Option[String])),
      )
      tableSignal += name -> j
    }
    for (j <- 0 until 120) {
      tables += LakeTable(
        TableMeta(f"credit_irr$j%03d", Sources(rnd.nextInt(Sources.length)), Vector("key"),
          Vector.fill(4)(s"rand${rnd.nextInt(100000)}")),
        Vector("key" -> keys.map(Option(_)),
          f"metric$j%03d" -> gaussians(rnd, n).map(v => Option(v.toString): Option[String])),
      )
    }

    val task = Tasks.FairClassificationTask("fair_credit", "target", "sensitive", Set("key"))
    Scenario(
      ScenarioSpec("fair_credit", TaskKind.Classification, rows = n, seed = seed),
      input, Lake(tables.result()), "target", task, tableSignal.result(),
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
    val input = LakeTable(
      TableMeta("products", Sources.head, Vector("key"), topic),
      Vector(
        "key" -> keys.map(Option(_)),
        "satiety" -> satiety.map(v => Option(v.toString): Option[String]),
      ),
    )

    val tables = Vector.newBuilder[LakeTable]
    tables += LakeTable(
      TableMeta("oni_scores", Sources.head, Vector("key"), topic :+ "oni"),
      Vector("key" -> keys.map(Option(_)),
        "oni" -> category.map(c => Option((c * 2.0 + 0.05 * rnd.nextGaussian()).toString): Option[String])),
    )
    for (j <- 0 until 7) {
      tables += LakeTable(
        TableMeta(f"food_irr$j%02d", Sources(rnd.nextInt(Sources.length)), Vector("key"),
          Vector.fill(3)(s"rand${rnd.nextInt(100000)}")),
        Vector("key" -> keys.map(Option(_)),
          f"metric$j%02d" -> gaussians(rnd, n).map(v => Option(v.toString): Option[String])),
      )
    }

    val task = Tasks.ClusteringTask("satiety_clustering", 3, Set("key"))
    Scenario(
      ScenarioSpec("satiety_clustering", TaskKind.Classification, rows = n, seed = seed),
      input, Lake(tables.result()), "satiety", task, Map("oni_scores" -> 0),
    )
  }
}
