package repro.engine

import repro.{SparkSpec, TestGraphs}
import repro.pattern.Patterns
import repro.plan.Planner

/** Distributed path of the DFS engine: each partition runs its
  * round-robin stripe of the canonical task order over the broadcast CSR,
  * and the result must agree with the local interpreter (every `Metrics`
  * field) and the naive matcher. The configs are the three `Tables` runs
  * (G²Miner with LGS, the baseline and the Pangolin scan); the graphs
  * include stripes that are uneven or empty.
  */
class SparkDfsSpec extends SparkSpec {

  private val configs = Seq(
    "g2miner-lgs" -> DfsConfig(lgs = true),
    "baseline" -> DfsConfig(orientation = false, lgs = false),
    "pangolin-scan" -> DfsConfig(wholeListScans = true),
  )

  for {
    (pName, p, induced) <- Seq(
      ("triangle", Patterns.triangle, false),
      ("diamond", Patterns.diamond, false),
      ("4-cycle", Patterns.cycle4, false),
      ("4-clique", Patterns.clique(4), false),
      ("wedge-induced", Patterns.wedge, true),
      ("3-star-induced", Patterns.star(4), true),
      ("tailed-tri-induced", Patterns.tailedTriangle, true),
    )
  } test(s"Spark run == local run == naive: $pName") {
    val plan = Planner.plan(p, induced)
    for ((gName, g) <- TestGraphs.forStripes; (cName, cfg) <- configs) {
      val dist = DfsEngine.run(spark, g, plan, cfg)
      val local = DfsEngine.runLocal(g, plan, cfg)
      val clue = s"$gName $cName"
      assert(dist.count == NaiveMatcher.countUnique(g, p, induced), clue)
      assert(dist.count == local.count, clue)
      assert(dist.setOpWork == local.setOpWork, clue)
      assert(dist.levelNodes.toSeq == local.levelNodes.toSeq, clue)
      assert(dist.tasks == local.tasks, clue)
      assert(dist.bufferSavedWork == local.bufferSavedWork, clue)
    }
  }

  test("Spark run with LGS agrees on hub patterns") {
    val g = TestGraphs.plDense
    val plan = Planner.plan(Patterns.clique(4), induced = false)
    val m = DfsEngine.run(spark, g, plan, DfsConfig(lgs = true))
    assert(m.count == NaiveMatcher.countUnique(g, Patterns.clique(4), induced = false))
  }

  test("Spark run on a DataGraphs tiny analog") {
    val g = TestGraphs.tiny(repro.graph.DataGraphs.lj)
    val m = DfsEngine.run(spark, g, Planner.plan(Patterns.triangle, induced = false), DfsConfig())
    assert(m.count == NaiveMatcher.countUnique(g, Patterns.triangle, induced = false))
  }

  test("metrics combine is associative enough: partition count independence") {
    val g = TestGraphs.plSkew
    val plan = Planner.plan(Patterns.diamond, induced = false)
    val a = DfsEngine.run(spark, g, plan, DfsConfig())
    val b = DfsEngine.runLocal(g, plan, DfsConfig())
    assert(a.count == b.count && a.setOpWork == b.setOpWork && a.bufferSavedWork == b.bufferSavedWork)
  }
}
