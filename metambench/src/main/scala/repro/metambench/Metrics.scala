package repro.metambench

/** Turns passes, spans and Spark counters into the reported metrics. */
object Metrics {

  type Table = Vector[(String, (Double, String))]

  val Methods: Vector[String] = Workloads.Methods
  /** Task kinds the workloads run: the search workloads use causal scenarios only. */
  val TaskKinds: Vector[String] = Vector("causal")

  /** The middle value, or the mean of the two middle values; 0 for an empty sample. */
  def median(xs: Seq[Double]): Double =
    if (xs.isEmpty) 0.0
    else {
      val sorted = xs.sorted
      val n = sorted.size
      if (n % 2 == 1) sorted(n / 2) else (sorted(n / 2 - 1) + sorted(n / 2)) / 2
    }

  /** Nearest-rank percentile; 0 for an empty sample. */
  def percentile(xs: Seq[Double], p: Double): Double =
    if (xs.isEmpty) 0.0
    else {
      val sorted = xs.sorted
      sorted(math.max(0, math.ceil(p * sorted.size).toInt - 1))
    }

  def mean(xs: Seq[Double]): Double = if (xs.isEmpty) 0.0 else xs.sum / xs.size

  /** End-to-end metrics. */
  def endToEnd(passes: Seq[(PassOutcome, Double)], setupS: Double, heapMb: Double): Table =
    Vector(
      "setup_s" -> (setupS, "s"),
      "pass_s" -> (median(passes.map(_._2)), "s"),
      "live_heap_mb" -> (heapMb, "MB"),
    )

  /** What the user gets from the passes: search outcomes and Table I
    * characteristics. Every pass of a run must repeat the first one's.
    */
  def outcomes(out: PassOutcome): Seq[Any] =
    out.runs.map(r => (r.scenario, r.method, r.result.utility, r.result.queriesUsed, r.result.curve)).toSeq ++
      out.repoStats

  /** Search quality, the paper's axis: deterministic for a seed, and
    * checked against the values `baseline.json` records (see
    * [[Checks.quality]]). Passes repeat the same outcomes, so these come
    * from the first pass; a workload without search reports zeros.
    */
  def quality(passes: Seq[(PassOutcome, Double)]): Table = {
    val (metam, baselines) = passes.head._1.runs.toVector.partition(_.method == "METAM")
    Vector(
      "metam.utility" -> (mean(metam.map(_.result.utility)), "utility"),
      "metam.curve_utility" -> (mean(metam.map(r => r.result.utilityAt(r.budget))), "utility"),
      "metam.queries_to_theta" ->
        (mean(metam.map(r => r.result.queriesTo(r.theta).getOrElse(r.budget + 1).toDouble)), "queries"),
      "baselines.curve_utility" -> (mean(baselines.map(r => r.result.utilityAt(r.budget))), "utility"),
    )
  }

  /** Query latency, reported with the per-layer metrics: its spread
    * between seeds is larger than any bound allows.
    */
  def queryLatency(passes: Seq[(PassOutcome, Double)]): Table = {
    val latencies = passes.flatMap(_._1.latenciesMs)
    Vector(
      "query_ms.p50" -> (percentile(latencies, 0.5), "ms"),
      "query_ms.p99" -> (percentile(latencies, 0.99), "ms"),
    )
  }

  def perLayer(passes: Seq[(PassOutcome, Double)], spans: Seq[Span],
               spark: Map[String, LayerCounters], gcS: Double): Table = {
    val n = passes.size.toDouble
    val outs = passes.map(_._1)
    val self = Tracer.selfNanos(spans)
    // Set-up work is reported once, pass work per pass.
    def weight(phase: String): Double = if (phase == "setup") 1.0 else 1.0 / n
    def selfS(p: Span => Boolean): Double = spans.filter(p).map(s => self(s.id) * weight(s.phase)).sum / 1e9
    def wallS(p: Span => Boolean): Double = spans.filter(p).map(s => (s.end - s.start) * weight(s.phase)).sum / 1e9
    def named(name: String): Span => Boolean = _.name == name
    def sparkOf(layer: String)(f: LayerCounters => Double): Double =
      spark.collect { case (k, c) if k.endsWith(s"/$layer") => f(c) * weight(k.takeWhile(_ != '/')) }.sum
    def sparkMetrics(layer: String, prefix: String): Table = Vector(
      s"$prefix.spark_jobs" -> (sparkOf(layer)(_.jobs.toDouble), "count"),
      s"$prefix.spark_job_s" -> (sparkOf(layer)(_.jobSeconds), "s"),
      s"$prefix.spark_tasks" -> (sparkOf(layer)(_.tasks.toDouble), "count"),
      s"$prefix.executor_s" -> (sparkOf(layer)(_.executorRunMs / 1e3), "s"),
      s"$prefix.shuffle_bytes" -> (sparkOf(layer)(c => (c.shuffleReadBytes + c.shuffleWriteBytes).toDouble), "bytes"),
      s"$prefix.failed_tasks" -> (sparkOf(layer)(c => (c.failedTasks + c.retriedTasks).toDouble), "count"),
    )
    def perPass(f: PassOutcome => Double): Double = outs.map(f).sum / n

    val runs = outs.flatMap(_.runs)
    val search = Methods.flatMap { m =>
      val rs = runs.filter(_.method == m).map(_.result)
      val queries = rs.map(_.queriesUsed).sum
      val useful = rs.map(r => r.curve.foldLeft((0.0, 0)) { case ((best, k), (_, u)) =>
        (math.max(best, u), if (u > best) k + 1 else k)
      }._2).sum
      Vector(
        s"search.$m.s" -> (wallS(named(s"search.$m")), "s"),
        s"search.$m.self_s" -> (selfS(named(s"search.$m")), "s"),
        s"search.$m.queries" -> (queries / n, "count"),
        s"search.$m.useful_query_ratio" -> (if (queries == 0) 0.0 else useful.toDouble / queries, "ratio"),
      )
    }
    val tasks = TaskKinds.flatMap { k =>
      val ms = outs.flatMap(_.tasks.filter(_.kind == k)).flatMap(_.durationsNs).map(_ / 1e6)
      Vector(
        s"tasks.$k.calls" -> (ms.size / n, "count"),
        s"tasks.$k.s" -> (ms.sum / 1e3 / n, "s"),
        s"tasks.$k.ms.p50" -> (percentile(ms, 0.5), "ms"),
        s"tasks.$k.ms.p99" -> (percentile(ms, 0.99), "ms"),
      )
    }
    // Share of each pass covered by the named layers' self time.
    val passRoots = spans.filter(s => s.name == "pass")
    val accounted = passRoots.map { root =>
      val sub = Tracer.subtree(spans, root)
      val layered = sub.filter(s => Tracer.layerOf(s.name).isDefined).map(s => self(s.id)).sum
      (root.end - root.start - layered, layered.toDouble / (root.end - root.start))
    }
    val prefetched = outs.map(_.columnsPrefetched).sum
    queryLatency(passes) ++ quality(passes) ++ Vector(
      "lake.gen_s" -> (selfS(named("lake.gen")), "s"),
      "discovery.s" -> (selfS(named("discovery")), "s"),
    ) ++ sparkMetrics("discovery", "discovery") ++ Vector(
      "discovery.candidates" -> (perPass(_.candidates.toDouble), "count"),
      "profile.s" -> (selfS(named("profile")), "s"),
    ) ++ sparkMetrics("profile", "profile") ++ Vector(
      "augment.prefetch_s" -> (selfS(named("augment.prefetch")), "s"),
    ) ++ sparkMetrics("augment", "augment") ++ Vector(
      "augment.columns" -> (perPass(_.columnsPrefetched.toDouble), "count"),
      "augment.search_misses" -> (perPass(_.searchMisses.toDouble), "count"),
      "augment.columns_used_ratio" ->
        (if (prefetched == 0) 0.0 else outs.map(_.columnsUsed).sum.toDouble / prefetched, "ratio"),
      "cluster.s" -> (selfS(named("cluster")), "s"),
      "cluster.clusters" -> (perPass(_.clusters.toDouble), "count"),
    ) ++ search ++ tasks ++ Vector(
      "jvm.gc_s" -> (gcS, "s"),
      "other.s" -> (mean(accounted.map(_._1 / 1e9)), "s"),
      "layers.share" -> (mean(accounted.map(_._2)), "ratio"),
      "trace.pass_s" -> (median(passes.map(_._2)), "s"),
    )
  }

  def quote(s: String): String =
    "\"" + s.flatMap {
      case '"' => "\\\""
      case '\\' => "\\\\"
      case c if c < ' ' => f"\\u${c.toInt}%04x"
      case c => c.toString
    } + "\""

  def json(checks: Checks, metrics: Table): String = {
    val ms = metrics.map { case (n, (v, u)) => s"""${quote(n)}: {"value": ${v.toString}, "unit": ${quote(u)}}""" }
    s"""{"correct": ${checks.failed == 0}, "attempted": ${checks.attempted}, "failed": ${checks.failed}, """ +
      s""""metrics": {${ms.mkString(", ")}}}"""
  }
}
