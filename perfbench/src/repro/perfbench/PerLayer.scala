package repro.perfbench

import Bench.{median, Pass, TracedPass}

/** Per-layer metrics of a traced run. Counters come from the engines'
  * own results; times from the traced passes' spans and Spark task
  * metrics, each the median over traced warm passes. A layer a workload
  * does not exercise reads 0.
  */
object PerLayer {
  /** Layer counters summed over a pass's queries (exact at a fixed seed). */
  val counters: Seq[(String, String)] = Seq(
    "setops.work" -> "steps", "setops.buffer_saved_work" -> "steps",
    "engine.tasks" -> "count", "engine.tree_nodes" -> "count",
    "mc.work" -> "steps",
    "fsm.embeddings" -> "count", "fsm.candidate_patterns" -> "count", "fsm.frequent_patterns" -> "count",
    "fsm.extension_work" -> "est_steps",
    "sched.speedup8_chunked" -> "ratio", "sched.speedup8_even" -> "ratio")

  /** Layers of the blocking path; spans of the benchmark itself are "bench". */
  val selfLayers: Seq[String] = Seq("bench", "plan", "engine", "mc", "fsm", "sched", "spark")

  def apply(untraced: Vector[Pass], traced: Vector[Pass]): Seq[(String, Double, String)] = {
    val stats = untraced.map(passStats)
    val counted = counters.map { case (k, u) => (k, median(stats.map(_.getOrElse(k, 0.0))), u) }
    val timed = traced.map(tracedMetrics)
    val timedMedians = timed.head.indices.map { i =>
      val (k, _, u) = timed.head(i)
      (k, median(timed.map(_(i)._2)), u)
    }
    counted ++ timedMedians ++ queryTimes(untraced, Workloads.all.flatMap(_.queries.map(_.id)))
  }

  def passStats(p: Pass): Map[String, Double] =
    p.runs.flatMap(_.outcome.toOption).flatMap(_.stats).groupMapReduce(_._1)(_._2)(_ + _)

  /** `query.<id>_s`: median wall time over the passes (0 when the id is not run). */
  def queryTimes(passes: Vector[Pass], ids: Seq[String]): Seq[(String, Double, String)] =
    ids.map(id => (s"query.${id}_s", median(passes.flatMap(_.runs.filter(_.query == id).map(_.seconds))), "s"))

  private def tracedMetrics(p: Pass): Seq[(String, Double, String)] = {
    val TracedPass(spans, snap) = p.traced.get
    val jobWallS = snap.jobs.map(j => (j.endMs - j.startMs) / 1e3)
    val jobS = jobWallS.sum
    val tasks = snap.tasks
    val runS = tasks.map(_.runMs).sum / 1e3
    val cpuS = tasks.map(_.cpuNs).sum / 1e9
    val mb = 1e6
    // Per job max ÷ mean task run time, weighted by job wall time.
    val jobOfStage = snap.jobs.flatMap(j => j.stages.map(_ -> j.id)).toMap
    val taskMs = tasks.groupMap(k => jobOfStage.getOrElse(k.stage, -1))(_.runMs.toDouble)
    val skews = snap.jobs.zip(jobWallS).flatMap { case (j, wall) =>
      taskMs.get(j.id).filter(_.sum > 0).map(ts => (wall, ts.max * ts.length / ts.sum))
    }
    val skew = if (skews.map(_._1).sum > 0) skews.map { case (w, s) => w * s }.sum / skews.map(_._1).sum else 0.0
    val self = Tracer.selfTimeByLayer(spans.filter(s => s.layer != "spark.stage" && s.layer != "spark.task"))
    Seq(
      ("plan.plan_ms", spans.filter(_.name == "plan.plan").map(_.durNs).sum / 1e6, "ms"),
      ("engine.spark_job_s", jobS, "s"),
      ("engine.driver_s", p.runs.map(_.seconds).sum - jobS, "s"),
      ("engine.parallel_eff", if (jobS > 0) runS / (jobS * Bench.Cores) else 0.0, "ratio"),
      ("engine.task_skew", skew, "ratio"),
      ("engine.steps_per_cpu_s", if (cpuS > 0) passStats(p).getOrElse("setops.work", 0.0) / cpuS else 0.0, "steps/s"),
      ("spark.jobs", snap.jobs.length.toDouble, "count"),
      ("spark.stages", snap.stages.length.toDouble, "count"),
      ("spark.tasks", tasks.length.toDouble, "count"),
      ("spark.executor_run_s", runS, "s"),
      ("spark.executor_cpu_s", cpuS, "s"),
      ("spark.gc_s", tasks.map(_.gcMs).sum / 1e3, "s"),
      ("spark.shuffle_write_mb", tasks.map(_.shuffleWrite).sum / mb, "MB"),
      ("spark.shuffle_read_mb", tasks.map(_.shuffleRead).sum / mb, "MB"),
      ("spark.spill_mb", tasks.map(_.spill).sum / mb, "MB"),
      ("spark.result_mb", tasks.map(_.result).sum / mb, "MB"),
    ) ++ selfLayers.map(l => (s"self.${l}_s", self.getOrElse(l, 0.0), "s"))
  }

  /** Spark jobs, stages and tasks of a pass as spans under the driver span
    * that was open when each job started.
    */
  def addSparkSpans(tr: Tracer, snap: SparkRecorder#Snapshot): Unit = {
    val ns = tr.epochMsToNs _
    val stageParent = snap.jobs.flatMap { j =>
      val id = tr.add(j.span, s"job.${j.id}", "spark", ns(j.startMs), ns(j.endMs))
      j.stages.map(_ -> id)
    }.toMap
    val stageSpan = snap.stages.flatMap { s =>
      stageParent.get(s.id).map(p => s.id -> tr.add(p, s"stage.${s.id}", "spark.stage", ns(s.submitMs), ns(s.doneMs)))
    }.toMap
    snap.tasks.foreach { k =>
      stageSpan.get(k.stage).foreach(p => tr.add(p, s"task.${k.stage}", "spark.task", ns(k.launchMs), ns(k.finishMs)))
    }
  }
}
