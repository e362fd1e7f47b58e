package repro.metambench

import org.apache.spark.SparkContext
import scala.collection.mutable

/** One timed interval around a layer call, a task call or a whole pass.
  * `parent` is the id of the enclosing span, -1 at the top.
  */
final case class Span(id: Int, name: String, scenario: String, parent: Int, phase: String, start: Long, end: Long)

/** Span recorder for the traced run. Spans are kept in memory and written
  * out when the benchmark ends. While a span is open, the Spark local
  * property [[Tracer.LayerProperty]] names its phase and layer, so a
  * [[SparkCounters]] listener can attribute every Spark job to the layer
  * that submitted it. A disabled tracer runs the bodies and records nothing.
  */
final class Tracer(val enabled: Boolean, sc: SparkContext) {
  private val done = mutable.ArrayBuffer.empty[Span]
  private var open = List.empty[(Int, String)] // (span id, layer) innermost first
  private var nextId = 0
  /** "setup" or "pass": which part of the run the next spans belong to. */
  var phase = "setup"

  def spans: Vector[Span] = done.toVector

  def apply[A](name: String, scenario: String)(body: => A): A =
    if (!enabled) body
    else {
      val id = nextId
      nextId += 1
      val parent = open.headOption.fold(-1)(_._1)
      val layer = Tracer.layerOf(name).getOrElse(open.headOption.fold(Tracer.Other)(_._2))
      open = (id, layer) :: open
      sc.setLocalProperty(Tracer.LayerProperty, s"$phase/$layer")
      val start = System.nanoTime()
      try body
      finally {
        done += Span(id, name, scenario, parent, phase, start, System.nanoTime())
        open = open.tail
        sc.setLocalProperty(Tracer.LayerProperty, open.headOption.map(o => s"$phase/${o._2}").orNull)
      }
    }
}

object Tracer {
  val LayerProperty = "metambench.layer"
  val Other = "other"

  /** Span-name prefix → layer. Spans named otherwise (a pass) are
    * groupings whose self time is reported as `other`.
    */
  val Layers: Vector[(String, String)] = Vector(
    "lake." -> "lake", "discovery" -> "discovery", "profile" -> "profile",
    "augment." -> "augment", "cluster" -> "cluster", "search." -> "search",
    "task." -> "tasks",
  )

  def layerOf(name: String): Option[String] = Layers.collectFirst { case (p, l) if name.startsWith(p) => l }

  /** Self time of each span in nanoseconds: its duration minus the part of
    * it covered by its direct children (children never overlap: the driver
    * is single-threaded).
    */
  def selfNanos(spans: Seq[Span]): Map[Int, Long] = {
    val childNanos = spans.groupBy(_.parent).view.mapValues(_.map(s => s.end - s.start).sum).toMap
    spans.map(s => s.id -> ((s.end - s.start) - childNanos.getOrElse(s.id, 0L))).toMap
  }

  /** Spans nested (at any depth) under `root`, `root` included. */
  def subtree(spans: Seq[Span], root: Span): Vector[Span] = {
    val byParent = spans.groupBy(_.parent)
    def go(s: Span): Vector[Span] = s +: byParent.getOrElse(s.id, Nil).toVector.flatMap(go)
    go(root)
  }
}
