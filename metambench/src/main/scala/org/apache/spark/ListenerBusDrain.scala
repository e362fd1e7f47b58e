package org.apache.spark

/** Waits until the listener bus has delivered every posted event, so the
  * benchmark's listener counts are complete before they are read. The bus
  * is package-private to Spark, hence this file's package.
  */
object ListenerBusDrain {
  def drain(sc: SparkContext): Unit = sc.listenerBus.waitUntilEmpty()
}
