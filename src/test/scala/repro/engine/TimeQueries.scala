package repro.engine

import repro.graph.{CSRGraph, DataGraphs}
import repro.pattern.{Pattern, Patterns}
import repro.plan.Planner

/** Single-threaded `runLocal` times of the benchmark's DFS queries on the
  * seed-0 `DataGraphs` graphs (Lj/2: Lj at half its vertices and edges),
  * with each run's count and `setOpWork`, so a kernel change can be timed
  * query by query without writing a probe:
  *
  * {{{
  *   sbt "Test/runMain repro.engine.TimeQueries"              # every query
  *   sbt "Test/runMain repro.engine.TimeQueries c4_or cl4_or" # the named ones
  * }}}
  *
  * A query's time is the best of [[Reps]] runs in one JVM, after the
  * queries before it have warmed the JIT, so compare runs of the same ids
  * in the same order. `rows` says whether its edge tasks count the last
  * level over owner rows ([[PlanExecutor]]).
  */
object TimeQueries {
  val Reps = 5

  private val g2 = DfsConfig(lgs = true)
  private val base = DfsConfig(orientation = false, lgs = false)
  private val ljHalf = DataGraphs.lj.copy(name = "Lj/2", n = DataGraphs.lj.n / 2, e = DataGraphs.lj.e / 2)

  final case class Q(id: String, graph: DataGraphs.Spec, p: Pattern, induced: Boolean, cfg: DfsConfig)

  /** The DFS queries of the `listing` and `motif` workloads, in their order. */
  val queries: Seq[Q] = Seq(
    Q("tc_or", DataGraphs.or, Patterns.triangle, false, g2),
    Q("cl4_or", DataGraphs.or, Patterns.clique(4), false, g2),
    Q("cl4_or_base", DataGraphs.or, Patterns.clique(4), false, base),
    Q("cl5_lj", DataGraphs.lj, Patterns.clique(5), false, g2),
    Q("cl5_lj_base", DataGraphs.lj, Patterns.clique(5), false, base),
    Q("dia_or", DataGraphs.or, Patterns.diamond, false, g2),
    Q("dia_or_base", DataGraphs.or, Patterns.diamond, false, base),
    Q("dia_or_count", DataGraphs.or, Patterns.diamond, false, DfsConfig(countingOnly = true)),
    Q("c4_or", DataGraphs.or, Patterns.cycle4, false, g2),
  ) ++ Seq("star" -> Patterns.star(4), "path" -> Patterns.path(4), "cycle" -> Patterns.cycle4,
    "tailed" -> Patterns.tailedTriangle, "diamond" -> Patterns.diamond, "clique" -> Patterns.clique(4)).map {
    case (n, p) => Q(s"mc4_lj_$n", ljHalf, p, !p.isClique, g2)
  } ++ Seq("wedge" -> Patterns.wedge, "tri" -> Patterns.triangle).flatMap { case (n, p) =>
    Seq(Q(s"mc3_tw2_$n", DataGraphs.tw2, p, !p.isClique, g2), Q(s"mc3_tw2_${n}_base", DataGraphs.tw2, p, !p.isClique, base))
  }

  def main(args: Array[String]): Unit = {
    val unknown = args.filterNot(id => queries.exists(_.id == id))
    if (unknown.nonEmpty) {
      System.err.println(s"unknown query ${unknown.mkString(", ")}; known: ${queries.map(_.id).mkString(" ")}")
      sys.exit(2)
    }
    val chosen = if (args.isEmpty) queries else args.toSeq.map(id => queries.find(_.id == id).get)
    println(f"${"query"}%-18s ${"best_ms"}%9s ${"count"}%12s ${"setOpWork"}%14s rows")
    for (q <- chosen) {
      val g: CSRGraph = DataGraphs.build(q.graph)
      val plan = Planner.plan(q.p, q.induced, q.cfg.countingOnly)
      val (graph, planX, lgs) = WorkEntries.prepared(g, plan, q.cfg)
      val rows = new PlanExecutor(graph, planX, q.cfg, lgs).rowLeaf
      val runs = (1 to Reps).map { _ =>
        val t0 = System.nanoTime()
        val m = DfsEngine.runLocal(g, plan, q.cfg)
        ((System.nanoTime() - t0) / 1e6, m)
      }
      val m = runs.head._2
      assert(runs.forall(r => r._2.count == m.count && r._2.setOpWork == m.setOpWork), q.id)
      println(f"${q.id}%-18s ${runs.map(_._1).min}%9.1f ${m.count}%12d ${m.setOpWork}%14d ${if (rows) "yes" else "no"}")
    }
  }
}
