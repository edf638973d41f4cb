package repro.engine

import repro.{SparkSpec, TestGraphs}
import repro.graph.CSRGraph
import repro.pattern.Patterns
import repro.plan.Planner

/** The Catalyst-compiled BFS engine (Pangolin/PBE analog) must agree with
  * the DFS engine and the naive matcher, and its per-level subgraph-list
  * sizes must equal the DFS search-tree level sizes.
  */
class BfsEngineSpec extends SparkSpec {

  private def edgeDf(g: CSRGraph) = TestGraphs.toEdgeDf(spark, g)

  for {
    (pName, p, induced) <- Seq(
      ("triangle", Patterns.triangle, false),
      ("wedge-induced", Patterns.wedge, true),
      ("diamond", Patterns.diamond, false),
      ("4-cycle", Patterns.cycle4, false),
      ("4-clique", Patterns.clique(4), false),
      ("3-star-induced", Patterns.star(4), true),
      ("diamond-induced", Patterns.diamond, true),
    )
  } test(s"BFS == DFS == naive: $pName on pl-skew") {
    val g = TestGraphs.plSkew
    val plan = Planner.plan(p, induced)
    val bfs = BfsEngine.run(spark, edgeDf(g), plan)
    assert(bfs.count == NaiveMatcher.countUnique(g, p, induced))
    val dfs = DfsEngine.runLocal(g, plan, DfsConfig(orientation = false))
    assert(bfs.count == dfs.count)
  }

  test("BFS level rows equal DFS tree level sizes (diamond)") {
    val g = TestGraphs.plMild
    val plan = Planner.plan(Patterns.diamond, induced = false)
    val bfs = BfsEngine.run(spark, edgeDf(g), plan)
    val dfs = DfsEngine.runLocal(g, plan, DfsConfig(orientation = false))
    // BFS materializes levels 1..k-1; DFS levelNodes(0) is |V|
    assert(bfs.levelRows.toSeq == dfs.levelNodes.drop(1).toSeq)
  }

  test("BFS level rows equal DFS tree level sizes (induced 3-star)") {
    val g = TestGraphs.plSkew
    val plan = Planner.plan(Patterns.star(4), induced = true)
    val bfs = BfsEngine.run(spark, edgeDf(g), plan)
    val dfs = DfsEngine.runLocal(g, plan, DfsConfig(orientation = false, lgs = false))
    assert(bfs.levelRows.toSeq == dfs.levelNodes.drop(1).toSeq)
  }

  test("BFS OoM triggers when the subgraph list exceeds the budget") {
    val g = TestGraphs.plDense
    val plan = Planner.plan(Patterns.clique(4), induced = false)
    val ex = intercept[BfsEngine.BfsOom] {
      BfsEngine.run(spark, edgeDf(g), plan, maxRows = 3)
    }
    assert(ex.rows > 3)
  }

  test("BFS listing rows are unique subgraphs (triangle listing)") {
    val g = TestGraphs.plMild
    val plan = Planner.plan(Patterns.triangle, induced = false)
    val bfs = BfsEngine.run(spark, edgeDf(g), plan)
    val rows = bfs.last.collect().map(_.toSeq.map(_.asInstanceOf[Int]).toSet)
    assert(rows.length == rows.distinct.length)
    rows.foreach(s => assert(s.size == 3))
  }

  test("BFS on K7 counts C(7,4) 4-cliques") {
    val bfs = BfsEngine.run(spark, edgeDf(TestGraphs.k7), Planner.plan(Patterns.clique(4), induced = false))
    assert(bfs.count == 35)
  }
}
