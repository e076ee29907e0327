package org.apache.spark

/** Waits until Spark has delivered every posted listener event, so task
  * totals read after a query are complete. The listener bus is internal to
  * the `org.apache.spark` package, hence this file's package.
  */
object ListenerBusDrain {
  def apply(sc: SparkContext): Unit = sc.listenerBus.waitUntilEmpty()
}
