package repro

import org.apache.spark.sql.{DataFrame, Row, SparkSession}
import repro.bench.Tables
import repro.graph.{CSRGraph, DataGraphs, SynthGraphs}

/** Shared small graph fixtures for cross-checking engines against the
  * naive matcher and the DuckDB oracle. All deterministic, and each one
  * passes `CSRGraph.validate()` when it is first built.
  */
object TestGraphs {
  lazy val k7: CSRGraph = checked(completeGraph(7))
  lazy val cyc9: CSRGraph = checked(cycle(9))
  lazy val star8: CSRGraph = checked(starGraph(8))
  lazy val grid34: CSRGraph = checked(grid(3, 4))
  lazy val plSkew: CSRGraph = checked(SynthGraphs.powerLaw(60, 150, 0.8, seed = 1))
  lazy val plMild: CSRGraph = checked(SynthGraphs.powerLaw(100, 300, 0.5, seed = 2))
  lazy val plDense: CSRGraph = checked(SynthGraphs.powerLaw(40, 220, 0.6, seed = 3))
  lazy val labeled: CSRGraph = checked(SynthGraphs.powerLaw(80, 200, 0.6, seed = 4, numLabels = 4))
  lazy val labeledTiny: CSRGraph = checked(SynthGraphs.powerLaw(18, 30, 0.5, seed = 5, numLabels = 3))

  /** pl-skew with vertex 0, a middle vertex and vertex n − 1 isolated. */
  lazy val isolatedEnds: CSRGraph = {
    val mid = plSkew.n / 2
    def id(v: Int) = if (v < mid) v + 1 else v + 2
    checked(CSRGraph.fromEdges(plSkew.n + 3,
      plSkew.canonicalEdges.toSeq.map(e => (id((e >>> 32).toInt), id(e.toInt)))))
  }
  lazy val oneEdge: CSRGraph = checked(CSRGraph.fromEdges(2, Seq((0, 1))))
  lazy val empty: CSRGraph = checked(CSRGraph.fromEdges(0, Nil))

  def checked(g: CSRGraph): CSRGraph = { g.validate(); g }

  private val tinyCache = scala.collection.concurrent.TrieMap.empty[String, CSRGraph]

  /** Tiny variant of a [[DataGraphs]] analog (about 1/40 of its size), built
    * once per spec.
    */
  def tiny(s: DataGraphs.Spec): CSRGraph =
    tinyCache.getOrElseUpdate(s.name,
      SynthGraphs.powerLaw(math.max(60, s.n / 40), math.max(90, s.e / 40), s.alpha, s.seed, s.labels,
        closure = s.closure, plantCliques = s.cliques.take(2).map(c => math.max(4, c / 6))))

  /** The table runners' loader at tiny scale. */
  val tinyLoader: Tables.Loader = tiny

  /** Fixtures for engine cross-checks (name, graph). */
  def forMatching: Seq[(String, CSRGraph)] = Seq(
    "K7" -> k7,
    "cycle9" -> cyc9,
    "star8" -> star8,
    "grid3x4" -> grid34,
    "pl-skew" -> plSkew,
    "pl-mild" -> plMild,
    "pl-dense" -> plDense,
  )

  /** Fixtures for the round-robin stripes (name, graph): pl-mild, and
    * graphs whose stripes are uneven, hold no-op slots or are empty.
    */
  def forStripes: Seq[(String, CSRGraph)] = Seq(
    "pl-mild" -> plMild,
    "isolated-ends" -> isolatedEnds,
    "one-edge" -> oneEdge,
    "empty" -> empty,
  )

  /** A hub of degree `d` and id `hub`, adjacent to every other vertex, whose
    * neighbours share random edges (probability 0.15): under LGS its local
    * graph has d vertices, `hub` of them below it.
    */
  def hubGraph(d: Int, hub: Int, seed: Long = 11): CSRGraph = {
    val rnd = new scala.util.Random(seed)
    val leaves = (0 to d).filter(_ != hub)
    checked(CSRGraph.fromEdges(d + 1, leaves.map(v => (hub, v)) ++
      (for { u <- leaves; v <- leaves if u < v && rnd.nextDouble() < 0.15 } yield (u, v))))
  }

  /** Hub fixtures whose LGS rows take one or two 64-bit words, with the
    * hub's rank among its neighbours (its symmetry bound) on or beside a
    * word edge (name, graph).
    */
  lazy val forWordEdges: Seq[(String, CSRGraph)] =
    Seq((63, 63), (64, 32), (65, 64), (128, 64)).map { case (d, h) => s"hub-$d-at-$h" -> hubGraph(d, h) }

  def cycle(n: Int): CSRGraph = CSRGraph.fromEdges(n, (0 until n).map(i => (i, (i + 1) % n)))
  def completeGraph(n: Int): CSRGraph =
    CSRGraph.fromEdges(n, for { u <- 0 until n; v <- u + 1 until n } yield (u, v))
  def starGraph(leaves: Int): CSRGraph =
    CSRGraph.fromEdges(leaves + 1, (1 to leaves).map(v => (0, v)))
  def grid(rows: Int, cols: Int): CSRGraph = {
    def id(r: Int, c: Int) = r * cols + c
    val es = (for { r <- 0 until rows; c <- 0 until cols } yield {
      val right = if (c + 1 < cols) Seq((id(r, c), id(r, c + 1))) else Nil
      val down = if (r + 1 < rows) Seq((id(r, c), id(r + 1, c))) else Nil
      right ++ down
    }).flatten
    CSRGraph.fromEdges(rows * cols, es)
  }

  /** Bipartite co-occurrence graph derived from the TPC-H-lite generator:
    * orders on one side, parts on the other, an edge per lineitem.
    * Exercises `repro.SynthData` and gives the oracle a second input schema.
    */
  def tpchBipartite(spark: SparkSession, sf: Double = 0.002, seed: Long = 0): CSRGraph = {
    val li = SynthData.lineitem(spark, sf, seed)
      .select("l_orderkey", "l_partkey").collect()
    val orderIds = scala.collection.mutable.HashMap.empty[Long, Int]
    val partIds = scala.collection.mutable.HashMap.empty[Long, Int]
    li.foreach(r => orderIds.getOrElseUpdate(r.getLong(0), orderIds.size))
    val nOrders = orderIds.size
    val es = li.map { r =>
      val o = orderIds(r.getLong(0))
      val p = partIds.getOrElseUpdate(r.getLong(1), partIds.size)
      (o, nOrders + p)
    }.toIndexedSeq
    checked(CSRGraph.fromEdges(nOrders + partIds.size, es))
  }

  /** Canonical edge DataFrame (src < dst) for the BFS engine / oracle. */
  def toEdgeDf(spark: SparkSession, g: CSRGraph): DataFrame = {
    import org.apache.spark.sql.types._
    val rows = g.canonicalEdges.map { e =>
      Row((e >>> 32).toInt, (e & 0xffffffffL).toInt)
    }
    val schema = StructType(Seq(StructField("src", IntegerType, false), StructField("dst", IntegerType, false)))
    spark.createDataFrame(spark.sparkContext.parallelize(rows.toIndexedSeq, 8), schema)
  }
}
