package repro.metambench

import scala.collection.mutable

import repro.lake.LocalTable
import repro.tasks.Task

/** Wraps a scenario's task to time every call from outside.
  *
  * It records each call's duration and completion time, and keeps a
  * reference to every augmented column it is handed (columns are named
  * `aug_<candidate id>__…`), so the Γ columns the program actually fed the
  * task can be checked after the timed pass, and wasted prefetch measured.
  * It makes no task calls of its own.
  */
final class TimedTask(inner: Task, val kind: String, tracer: Tracer, scenario: String) extends Task {
  def name: String = inner.name

  val durationsNs = mutable.ArrayBuffer.empty[Long]
  val completionsNs = mutable.ArrayBuffer.empty[Long]
  val seenColumns = mutable.LinkedHashMap.empty[Int, Array[Option[String]]]

  def calls: Int = durationsNs.size

  def utility(table: LocalTable): Double = {
    table.columns.foreach { case (n, vals) =>
      if (n.startsWith("aug_")) {
        val id = n.substring(4, n.indexOf("__")).toInt
        if (!seenColumns.contains(id)) seenColumns(id) = vals
      }
    }
    val start = System.nanoTime()
    val u = tracer(s"task.$kind", scenario)(inner.utility(table))
    val end = System.nanoTime()
    durationsNs += end - start
    completionsNs += end
    u
  }

  /** Query latencies (ms) of consecutive calls in `[from, until)`: the time
    * from one call's completion to the next one's. The first call of the
    * range has no predecessor within it and yields no sample.
    */
  def latenciesMs(from: Int, until: Int): Seq[Double] =
    (from + 1 until until).map(i => (completionsNs(i) - completionsNs(i - 1)) / 1e6)
}
