package repro.metambench

import org.apache.spark.SparkContext
import org.apache.spark.scheduler._
import scala.collection.mutable

/** Spark work attributed to one layer. */
final class LayerCounters {
  var jobs = 0
  var stages = 0
  var tasks = 0
  var failedTasks = 0
  var retriedTasks = 0
  var shuffleReadBytes = 0L
  var shuffleWriteBytes = 0L
  var executorRunMs = 0L
  val jobIntervals = mutable.ArrayBuffer.empty[(Long, Long)] // (start ms, end ms)

  /** Wall time with at least one of this layer's jobs running. */
  def jobSeconds: Double = {
    var total = 0L
    var curStart = Long.MinValue
    var curEnd = Long.MinValue
    jobIntervals.sortBy(_._1).foreach { case (s, e) =>
      if (s > curEnd) {
        if (curEnd > curStart) total += curEnd - curStart
        curStart = s; curEnd = e
      } else curEnd = math.max(curEnd, e)
    }
    if (curEnd > curStart) total += curEnd - curStart
    total / 1e3
  }
}

/** Listener counting jobs, stages, tasks, failed and retried tasks,
  * shuffle bytes and executor run time per "phase/layer" key. A job belongs
  * to the key held by the [[Tracer.LayerProperty]] local property when it
  * was submitted; its stages and tasks follow it. Jobs submitted outside any
  * traced span are counted under "untraced".
  */
final class SparkCounters extends SparkListener {
  private val byLayer = mutable.HashMap.empty[String, LayerCounters]
  private val stageLayer = mutable.HashMap.empty[Int, String]
  private val jobOpen = mutable.HashMap.empty[Int, (String, Long)]

  private def counters(layer: String): LayerCounters = byLayer.getOrElseUpdate(layer, new LayerCounters)

  override def onJobStart(e: SparkListenerJobStart): Unit = synchronized {
    val layer = Option(e.properties).flatMap(p => Option(p.getProperty(Tracer.LayerProperty))).getOrElse("untraced")
    counters(layer).jobs += 1
    e.stageIds.foreach(stageLayer(_) = layer)
    jobOpen(e.jobId) = (layer, e.time)
  }

  override def onJobEnd(e: SparkListenerJobEnd): Unit = synchronized {
    jobOpen.remove(e.jobId).foreach { case (layer, start) => counters(layer).jobIntervals += ((start, e.time)) }
  }

  override def onStageSubmitted(e: SparkListenerStageSubmitted): Unit = synchronized {
    stageLayer.get(e.stageInfo.stageId).foreach(counters(_).stages += 1)
  }

  override def onTaskEnd(e: SparkListenerTaskEnd): Unit = synchronized {
    stageLayer.get(e.stageId).foreach { layer =>
      val c = counters(layer)
      c.tasks += 1
      if (e.taskInfo.failed || e.taskInfo.killed) c.failedTasks += 1
      if (e.taskInfo.attemptNumber > 0) c.retriedTasks += 1
      Option(e.taskMetrics).foreach { m =>
        c.executorRunMs += m.executorRunTime
        c.shuffleReadBytes += m.shuffleReadMetrics.totalBytesRead
        c.shuffleWriteBytes += m.shuffleWriteMetrics.bytesWritten
      }
    }
  }

  /** Counters per key once every posted event has been handled. */
  def snapshot(sc: SparkContext): Map[String, LayerCounters] = {
    org.apache.spark.ListenerBusDrain.drain(sc)
    synchronized(byLayer.toMap)
  }
}
