package repro.metambench

import java.io.{File, PrintWriter}
import java.lang.management.ManagementFactory
import org.apache.spark.sql.SparkSession
import scala.collection.mutable
import scala.jdk.CollectionConverters._

/** The METAM benchmark: one workload per process, closed loop (one caller
  * submits a discovery request and waits for its answer).
  *
  * `--workload <name> --seed <n> --seconds <s> --trace <0|1>`. After set-up
  * (Spark session, warm-up, and whatever the workload prepares once) it runs
  * timed passes until they add up to `--seconds`, at least one, then checks
  * the outputs against driver-side references. The live heap is read after
  * the first pass, so it does not depend on how many passes fit. The last line of standard
  * output is a JSON object with `correct`, `attempted`, `failed` and the
  * metrics: the end-to-end ones untraced, the per-layer ones traced.
  */
object Main {

  /** Spark session settings, fixed here so both sides of a comparison share them. */
  val Cores: Int = math.min(4, Runtime.getRuntime.availableProcessors())
  val SpanDir = ".bench_build/metambench"
  /** Search quality recorded per workload and seed, relative to the checkout root. */
  val Baseline = new File("metambench/baseline.json")

  final case class Options(workload: String, seed: Long, seconds: Double, trace: Boolean)

  def parse(args: Array[String]): Either[String, Options] = {
    val kv = args.grouped(2).collect { case Array(k, v) if k.startsWith("--") => k.drop(2) -> v }.toMap
    for {
      _ <- Either.cond(args.length % 2 == 0 && kv.size * 2 == args.length, (), s"malformed arguments: ${args.mkString(" ")}")
      w <- kv.get("workload").filter(Workloads.byName(_).isDefined).toRight(s"unknown or missing --workload")
      seed <- kv.get("seed").fold[Either[String, Long]](Right(Workloads.byName(w).get.defaultSeed))(
        s => s.toLongOption.toRight(s"bad --seed $s"))
      secs <- kv.get("seconds").flatMap(_.toDoubleOption).filter(_ > 0).toRight("missing or bad --seconds")
      trace <- kv.getOrElse("trace", "0") match {
        case "0" => Right(false)
        case "1" => Right(true)
        case t => Left(s"bad --trace $t")
      }
    } yield Options(w, seed, secs, trace)
  }

  def main(args: Array[String]): Unit = parse(args) match {
    case Left(err) =>
      Console.err.println(s"[metambench] $err")
      sys.exit(2)
    case Right(opts) => sys.exit(run(opts))
  }

  def run(opts: Options): Int = {
    val jvmStartMs = ManagementFactory.getRuntimeMXBean.getStartTime
    val spark = SparkSession.builder
      .master(s"local[$Cores]")
      .appName("metambench")
      .config("spark.sql.shuffle.partitions", "64")
      .config("spark.sql.autoBroadcastJoinThreshold", "-1")
      .config("spark.ui.enabled", "false")
      .config("spark.driver.host", "127.0.0.1")
      .getOrCreate()
    try {
      val counters = new SparkCounters
      if (opts.trace) spark.sparkContext.addSparkListener(counters)
      val tracer = new Tracer(opts.trace, spark.sparkContext)
      val ctx = new Ctx(spark, tracer, new Checks, opts.seed)
      val workload = Workloads.byName(opts.workload).get
      val sparkS = (System.currentTimeMillis() - jvmStartMs) / 1e3

      workload.setup(ctx)
      val setupS = (System.currentTimeMillis() - jvmStartMs) / 1e3
      tracer.phase = "pass"
      val gcBefore = gcSeconds()
      val passes = mutable.ArrayBuffer.empty[(PassOutcome, Double)]
      var heapMb = Double.NaN
      var forcedGcS = 0.0
      while (passes.isEmpty || passes.map(_._2).sum < opts.seconds) {
        // Every pass starts from a collected heap, so one pass's garbage does
        // not fall to the next one's timing.
        val g = gcSeconds()
        System.gc()
        forcedGcS += gcSeconds() - g
        val s = System.nanoTime()
        val out = workload.pass(ctx)
        passes += ((out, (System.nanoTime() - s) / 1e9))
        // The first pass's outputs, its engine and the workload's state are reachable here.
        if (passes.size == 1) {
          val g = gcSeconds()
          heapMb = liveHeapMb()
          forcedGcS += gcSeconds() - g
        }
      }
      val gcS = (gcSeconds() - gcBefore - forcedGcS) / passes.size

      workload.verify(ctx, passes.map(_._1).toSeq)
      if (passes.map(p => Metrics.outcomes(p._1)).distinct.size > 1)
        Console.err.println("[metambench] DETERMINISM: outcomes differ between passes of one run")
      val quality = Metrics.quality(passes.toSeq)
      if (passes.head._1.runs.nonEmpty) {
        Console.err.println(s"[metambench] quality ${opts.workload} seed ${opts.seed}: " +
          quality.map { case (n, (v, _)) => s""""$n": $v""" }.mkString("{", ", ", "}"))
        ctx.checks.quality(opts.workload, opts.seed, quality, Baseline)
      }
      val metrics =
        if (opts.trace) {
          val sparkCounts = counters.snapshot(spark.sparkContext)
          writeTrace(opts, tracer.spans, sparkCounts)
          Metrics.perLayer(passes.toSeq, tracer.spans, sparkCounts, gcS)
        } else Metrics.endToEnd(passes.toSeq, setupS, heapMb)
      Console.err.println(f"[metambench] ${opts.workload} seed=${opts.seed} spark=$sparkS%.2fs setup=$setupS%.2fs passes=" +
        passes.map(p => f"${p._2}%.2f").mkString(","))
      val bad = metrics.filter { case (_, (v, _)) => v.isNaN || v.isInfinite }
      bad.foreach { case (n, _) => ctx.checks.check(ok = false, s"metric $n is not finite") }
      println(Metrics.json(ctx.checks, metrics.map { case (n, (v, u)) => n -> (if (bad.contains(n)) 0.0 else v, u) }))
      0
    } finally spark.stop()
  }

  def gcSeconds(): Double =
    ManagementFactory.getGarbageCollectorMXBeans.asScala.map(_.getCollectionTime.max(0L)).sum / 1e3

  /** Driver heap still reachable after forced full collections. Spark's
    * cleaner thread frees the cached blocks and broadcasts of collected
    * objects only after a collection has found them, so this collects until
    * two readings half a second apart agree within 1 MB.
    */
  def liveHeapMb(): Double = {
    def collect(): Double = {
      System.gc()
      ManagementFactory.getMemoryMXBean.getHeapMemoryUsage.getUsed / (1024.0 * 1024.0)
    }
    val readings = mutable.ArrayBuffer(collect())
    while (readings.size < 2 || (math.abs(readings.last - readings(readings.size - 2)) > 1.0 && readings.size < 10)) {
      Thread.sleep(500)
      readings += collect()
    }
    Console.err.println(readings.map(r => f"$r%.1f").mkString("[metambench] live heap readings (MB): ", ", ", ""))
    readings.last
  }

  /** Spans, then the Spark counters of each phase/layer key, as JSON lines. */
  private def writeTrace(opts: Options, spans: Seq[Span], spark: Map[String, LayerCounters]): Unit = {
    val dir = new File(SpanDir)
    dir.mkdirs()
    val w = new PrintWriter(new File(dir, s"spans-${opts.workload}-${opts.seed}.jsonl"), "UTF-8")
    try {
      spans.foreach { s =>
        w.println(s"""{"id":${s.id},"name":${Metrics.quote(s.name)},"scenario":${Metrics.quote(s.scenario)},""" +
          s""""parent":${s.parent},"phase":"${s.phase}","start_ns":${s.start},"end_ns":${s.end}}""")
      }
      spark.toSeq.sortBy(_._1).foreach { case (k, c) =>
        w.println(s"""{"spark":${Metrics.quote(k)},"jobs":${c.jobs},"stages":${c.stages},"tasks":${c.tasks},""" +
          s""""failed_tasks":${c.failedTasks},"retried_tasks":${c.retriedTasks},"shuffle_read_bytes":${c.shuffleReadBytes},""" +
          s""""shuffle_write_bytes":${c.shuffleWriteBytes},"executor_run_ms":${c.executorRunMs},"job_s":${c.jobSeconds}}""")
      }
    } finally w.close()
  }
}
