package repro.engine

import org.apache.spark.sql.{Column, DataFrame, SparkSession}
import org.apache.spark.sql.functions._
import repro.plan.SearchPlan

/** Test oracle: level-by-level BFS exploration (Algorithm 2) compiled
  * from a [[SearchPlan]] into a chain of DataFrame joins — the paper's
  * "code generation" realized as Catalyst logical-plan generation.
  *
  * Each level materializes the full subgraph list (like Pangolin), so a run
  * reports per-level row counts. Tests check those against `DfsEngine`'s
  * `levelNodes`, from which the cost model derives the Pangolin and PBE
  * memory footprints; no table runs this engine. Setting `maxRows` makes
  * the run fail fast with [[BfsOom]] like a device running out of memory.
  */
object BfsEngine {

  final case class BfsOom(level: Int, rows: Long) extends RuntimeException(
    s"BFS subgraph list exceeded budget at level $level ($rows rows)")

  final case class BfsRun(count: Long, levelRows: Vector[Long], last: DataFrame)

  /** Compile the plan into the level-i extension of `cur`.
    *
    * @param adj adjacency DataFrame with both directions, columns (s, d)
    */
  private def extendLevel(cur: DataFrame, adj: DataFrame, plan: SearchPlan, i: Int): DataFrame = {
    val spec = plan.levels(i - 1)
    val vcol = (j: Int) => col(s"v$j")
    // candidate generation from the first backward neighbor
    val a0 = adj.select(col("s").as("_cs"), col("d").as("_cd"))
    var df = cur.join(a0, a0("_cs") === vcol(spec.conn.head))
    var cand: Column = col("_cd")
    // remaining connectivity constraints: one join per required edge
    spec.conn.tail.zipWithIndex.foreach { case (j, x) =>
      val aj = adj.select(col("s").as(s"_s$x"), col("d").as(s"_d$x"))
      df = df.join(aj, aj(s"_s$x") === vcol(j) && aj(s"_d$x") === cand)
    }
    // anti-connectivity (vertex-induced): anti join per forbidden edge
    spec.anti.foreach { j =>
      val aj = adj.select(col("s").as("_as"), col("d").as("_ad"))
      df = df.join(aj, aj("_as") === vcol(j) && aj("_ad") === cand, "left_anti")
    }
    // symmetry bounds and injectivity
    spec.uppers.foreach(j => df = df.filter(cand < vcol(j)))
    spec.lowers.foreach(j => df = df.filter(cand > vcol(j)))
    (0 until i).foreach(j => df = df.filter(cand =!= vcol(j)))
    df.select((0 until i).map(vcol) :+ cand.as(s"v$i"): _*)
  }

  /** Level-1 subgraph list (v0, v1) honoring symmetry bounds. */
  private def level1(adj: DataFrame, plan: SearchPlan): DataFrame = {
    val spec = plan.levels(0)
    var df = adj.select(col("s").as("v0"), col("d").as("v1"))
    spec.uppers.foreach(j => df = df.filter(col("v1") < col(s"v$j")))
    spec.lowers.foreach(j => df = df.filter(col("v1") > col(s"v$j")))
    df
  }

  /** Run BFS exploration. `edges` is the canonical (src < dst) edge
    * DataFrame; both directions are derived here.
    */
  def run(spark: SparkSession, edges: DataFrame, plan: SearchPlan,
          maxRows: Long = Long.MaxValue): BfsRun = {
    val adj = edges.select(col("src").as("s"), col("dst").as("d"))
      .union(edges.select(col("dst").as("s"), col("src").as("d")))
      .persist()
    try {
      var cur = level1(adj, plan).persist()
      var rows = Vector(cur.count())
      if (rows.last > maxRows) throw BfsOom(1, rows.last)
      for (i <- 2 until plan.k) {
        val next = extendLevel(cur, adj, plan, i).persist()
        rows = rows :+ next.count()
        cur.unpersist()
        cur = next
        if (rows.last > maxRows) throw BfsOom(i, rows.last)
      }
      BfsRun(rows.last, rows, cur)
    } finally {
      adj.unpersist()
    }
  }
}
