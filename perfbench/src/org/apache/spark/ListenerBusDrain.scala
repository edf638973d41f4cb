package org.apache.spark

/** `LiveListenerBus.waitUntilEmpty` is `private[spark]`; the traced run
  * needs it so that every job, stage and task event of a pass has reached
  * the benchmark's listener before the pass is summarised.
  */
object ListenerBusDrain {
  def apply(sc: SparkContext): Unit = sc.listenerBus.waitUntilEmpty()
}
