package repro.engine

import org.apache.spark.sql.functions._
import repro.{Oracle, SparkSpec, TestGraphs}
import repro.graph.CSRGraph
import repro.pattern.Patterns
import repro.plan.Planner

/** DuckDB oracle checks: SQL self-joins over the canonical edge table are
  * an independent implementation of small-pattern counting; both the exact
  * counts and the full triangle listing must match the Spark engines.
  */
class OracleSpec extends SparkSpec {

  private def edges(g: CSRGraph) = TestGraphs.toEdgeDf(spark, g)

  private def sparkCount(v: Long) = {
    import spark.implicits._
    Seq(v).toDF("cnt")
  }

  test("triangle count matches DuckDB 3-way self-join (pl-skew)") {
    val g = TestGraphs.plSkew
    val e = edges(g)
    val m = DfsEngine.runLocal(g, Planner.plan(Patterns.triangle, induced = false), DfsConfig())
    Oracle.assertEquivalent(
      sparkCount(m.count),
      """SELECT COUNT(*) AS cnt
        |FROM e a JOIN e b ON a.dst = b.src JOIN e c ON c.src = a.src AND c.dst = b.dst""".stripMargin,
      "e" -> e)
  }

  test("triangle count matches DuckDB on the TPC-H bipartite graph (zero)") {
    val g = TestGraphs.tpchBipartite(spark, sf = 0.001)
    val e = edges(g)
    val m = DfsEngine.runLocal(g, Planner.plan(Patterns.triangle, induced = false), DfsConfig())
    assert(m.count == 0)
    Oracle.assertEquivalent(
      sparkCount(m.count),
      "SELECT COUNT(*) AS cnt FROM e a JOIN e b ON a.dst = b.src JOIN e c ON c.src = a.src AND c.dst = b.dst",
      "e" -> e)
  }

  test("non-induced wedge count matches DuckDB degree formula") {
    val g = TestGraphs.plMild
    val e = edges(g)
    // wedges = sum over vertices of C(d,2); degrees from both edge directions
    val wedges = (0 until g.n).map(v => g.deg(v).toLong * (g.deg(v) - 1) / 2).sum
    Oracle.assertEquivalent(
      sparkCount(wedges),
      """WITH deg AS (
        |  SELECT v, COUNT(*) AS d FROM (
        |    SELECT src AS v FROM e UNION ALL SELECT dst AS v FROM e
        |  ) GROUP BY v
        |) SELECT CAST(SUM(d * (d - 1) / 2) AS BIGINT) AS cnt FROM deg""".stripMargin,
      "e" -> e)
  }

  test("4-clique count matches DuckDB 6-way join (pl-dense)") {
    val g = TestGraphs.plDense
    val e = edges(g)
    val m = DfsEngine.runLocal(g, Planner.plan(Patterns.clique(4), induced = false), DfsConfig())
    Oracle.assertEquivalent(
      sparkCount(m.count),
      """SELECT COUNT(*) AS cnt
        |FROM e ab
        |JOIN e ac ON ac.src = ab.src AND CAST(ac.dst AS INT) > CAST(ab.dst AS INT)
        |JOIN e bc ON bc.src = ab.dst AND bc.dst = ac.dst
        |JOIN e ad ON ad.src = ab.src
        |JOIN e bd ON bd.src = ab.dst AND bd.dst = ad.dst
        |JOIN e cd ON cd.src = ac.dst AND cd.dst = ad.dst""".stripMargin,
      "e" -> e)
  }

  test("edge-induced diamond count matches DuckDB (pairs of triangles per edge)") {
    val g = TestGraphs.plSkew
    val e = edges(g)
    val m = DfsEngine.runLocal(g, Planner.plan(Patterns.diamond, induced = false), DfsConfig())
    // per undirected edge (u,v): t = common neighbors; diamonds = C(t,2)
    Oracle.assertEquivalent(
      sparkCount(m.count),
      """WITH adj AS (
        |  SELECT src AS s, dst AS d FROM e UNION ALL SELECT dst AS s, src AS d FROM e
        |), tri AS (
        |  SELECT e.src, e.dst, COUNT(*) AS t
        |  FROM e JOIN adj a1 ON a1.s = e.src JOIN adj a2 ON a2.s = e.dst AND a2.d = a1.d
        |  GROUP BY e.src, e.dst
        |) SELECT COALESCE(CAST(SUM(t * (t - 1) / 2) AS BIGINT), 0) AS cnt FROM tri""".stripMargin,
      "e" -> e)
  }

  test("full triangle listing matches DuckDB row by row") {
    val g = TestGraphs.plMild
    val e = edges(g)
    val bfs = BfsEngine.run(spark, e, Planner.plan(Patterns.triangle, induced = false))
    // canonicalize rows to ascending (a < b < c) on the Spark side
    val listed = bfs.last.select(
      least(col("v0"), col("v1"), col("v2")).as("a"),
      expr("v0 + v1 + v2") - least(col("v0"), col("v1"), col("v2")) -
        greatest(col("v0"), col("v1"), col("v2")) as "b",
      greatest(col("v0"), col("v1"), col("v2")).as("c"))
    Oracle.assertEquivalent(
      listed,
      """SELECT a.src AS a, a.dst AS b, b.dst AS c
        |FROM e a JOIN e b ON a.dst = b.src JOIN e c ON c.src = a.src AND c.dst = b.dst""".stripMargin,
      "e" -> e)
  }

  test("SynthData lineitem row count matches DuckDB (provided substrate exercised)") {
    val li = repro.SynthData.lineitem(spark, sf = 0.001).cache()
    Oracle.assertEquivalent(
      li.groupBy().agg(count(lit(1)).as("cnt")),
      "SELECT COUNT(*) AS cnt FROM lineitem",
      "lineitem" -> li)
  }
}
