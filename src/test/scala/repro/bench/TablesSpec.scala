package repro.bench

import repro.{SparkSpec, TestGraphs}
import repro.cost.CostModel.{G2MinerGpu, Sim}
import repro.engine.{DfsConfig, DfsEngine}
import repro.graph.DataGraphs
import repro.pattern.Patterns
import repro.plan.Planner

/** Tiny-scale smoke runs of every table runner: structure, count sanity,
  * cross-system invariants and the golden rendered output. Full-scale
  * numbers come from bench/.
  *
  * The golden file `src/test/resources/tables-tiny.txt` is the rendered
  * output of `table4`…`table9` and `multigpu` with `TestGraphs.tinyLoader`, each
  * followed by a newline, as `TableJob` prints them. When the output
  * differs, the golden test writes the new rendering to
  * `target/tables-tiny.txt`; to regenerate after an intended change of
  * `[sim]` cells, copy that file over the golden one.
  */
class TablesSpec extends SparkSpec {

  // one run per table, shared by the tests that read it
  private lazy val t4 = Tables.table4(spark, TestGraphs.tinyLoader)
  private lazy val t5 = Tables.table5(spark, TestGraphs.tinyLoader)
  private lazy val t6 = Tables.table6(spark, TestGraphs.tinyLoader)
  private lazy val t7 = Tables.table7(spark, TestGraphs.tinyLoader)
  private lazy val t8 = Tables.table8(spark, TestGraphs.tinyLoader)
  private lazy val t9 = Tables.table9(spark, TestGraphs.tinyLoader)
  private lazy val multiGpu = Tables.multiGpuScaling(spark, TestGraphs.tinyLoader)

  private def allDefined(t: TableResult): Unit =
    for (s <- t.systems; c <- t.columns)
      assert(t.sims.contains((s, c)), s"missing cell ($s, $c)")

  test("table4 tiny: all cells present, G2Miner fastest, counts positive") {
    allDefined(t4)
    assert(t4.counts.values.forall(_ >= 0))
    for (c <- t4.columns) {
      val g2 = t4.sim("G2Miner", c).seconds.get
      for (s <- t4.systems if s != "G2Miner"; sec <- t4.sim(s, c).seconds)
        assert(g2 <= sec, s"G2Miner not fastest on $c vs $s")
    }
  }

  test("table4 tiny: CPU systems slower than GPU G2Miner everywhere") {
    for (c <- t4.columns)
      assert(t4.sim("GraphZero", c).seconds.get > t4.sim("G2Miner", c).seconds.get)
  }

  test("table5 tiny smoke") {
    allDefined(t5)
    // 4-clique counts are consistent with 5-clique counts (5CL <= 4CL * V)
    assert(t5.counts.keys.exists(_.startsWith("4CL")))
  }

  test("table6 tiny smoke (no Pangolin column)") {
    allDefined(t6)
    assert(!t6.systems.contains("Pangolin"))
  }

  test("table7 tiny smoke: motif totals positive") {
    allDefined(t7)
    assert(t7.counts.values.forall(_ > 0))
  }

  test("table8 tiny smoke") {
    allDefined(t8)
    // more permissive sigma finds at least as many frequent patterns
    for (g <- Seq("Mi", "Pa", "Yo"))
      assert(t8.counts(s"$g/300") >= t8.counts(s"$g/5000"))
  }

  test("table9 tiny smoke: counting-only GPU beats counting-only CPU") {
    allDefined(t9)
    for (c <- t9.columns)
      assert(t9.sim("G2Miner", c).seconds.get < t9.sim("Peregrine", c).seconds.get)
  }

  test("table9 diamond counts equal table6 diamond counts (same semantics)") {
    for (g <- Seq("Lj", "Or", "Fr"))
      assert(t9.counts(s"dia/$g") == t6.counts(s"dia/$g"))
  }

  test("multi-GPU scaling tiny smoke: chunked RR reaches better 8-GPU speedup") {
    val (rows, rendered) = multiGpu
    val even8 = rows.find(r => r.n == 8 && r.policy == "even-split").get.speedup
    val chunk8 = rows.find(r => r.n == 8 && r.policy == "chunked-rr").get.speedup
    assert(chunk8 >= even8)
    assert(rendered.contains("Multi-GPU"))
  }

  test("multi-GPU scaling simulates every task of both 3-motif patterns") {
    // the wedge runs every arc and the triangle one task per edge: one
    // device under even split does all of both lists' work
    val g = TestGraphs.tinyLoader(DataGraphs.tw2)
    val works = Patterns.motifs(3).map(p =>
      DfsEngine.perTaskWork(g, Planner.plan(p, induced = true), DfsConfig(orientation = false)))
    assert(works.map(_.length).distinct.length == 2)
    val thr = G2MinerGpu.device.elemOpsPerSec * G2MinerGpu.efficiency
    val one = multiGpu._1.find(r => r.n == 1 && r.policy == "even-split").get.makespan
    assert(math.abs(one * thr - works.map(_.sum).sum) < 1e-6 * works.map(_.sum).sum)
  }

  test("render produces a readable table with paper rows") {
    val out = t4.render
    assert(out.contains("G2Miner") && out.contains("[paper]") && out.contains("[sim]"))
  }

  test("rendered tiny tables equal the golden file byte for byte") {
    val rendered = (Seq(t4, t5, t6, t7, t8, t9).map(_.render) :+ multiGpu._2).map(_ + "\n").mkString
    val golden = {
      val src = scala.io.Source.fromResource("tables-tiny.txt", getClass.getClassLoader)("UTF-8")
      try src.mkString finally src.close()
    }
    if (rendered != golden) {
      java.nio.file.Files.writeString(java.nio.file.Paths.get("target", "tables-tiny.txt"), rendered)
      fail("rendered tiny tables differ from tables-tiny.txt; new rendering written to target/tables-tiny.txt")
    }
  }

  test("paper numbers tables are complete") {
    import PaperNumbers._
    assert(table4.size == 5 * 6)
    assert(table5.size == 5 * 8)
    assert(table6.size == 4 * 8)
    assert(table7.size == 4 * 8)
    assert(table8.size == 4 * 12)
    assert(table9.size == 2 * 13)
  }
}
