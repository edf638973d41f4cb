package repro.fsm

import scala.collection.mutable
import scala.jdk.CollectionConverters._
import scala.reflect.ClassTag
import java.util.concurrent.ConcurrentHashMap
import org.apache.spark.HashPartitioner
import org.apache.spark.rdd.RDD
import org.apache.spark.sql.SparkSession
import repro.graph.CSRGraph
import repro.pattern.{Pattern, Patterns}

/** Frequent Subgraph Mining (k-FSM) by edge extension with MNI ("domain")
  * support, the paper's §5.2/§7.2 workload.
  *
  * The embedding lists live in plain RDDs and grow level by level (bounded
  * BFS, optimization M): the block (partition) count is sized from the row
  * count. A level costs one shuffle and one Spark job. The shuffle sends
  * each embedding, already distinct within its map partition, to the block
  * of its pattern, so a block holds every copy of each of its embeddings
  * and every embedding of each of its patterns. The block deduplicates its
  * rows and counts its patterns' MNI supports: per automorphism orbit, the
  * distinct vertices in its positions, minimised over the orbits. Orbits
  * are unions over pattern automorphisms, so MNI matches the GraMi
  * definition. A task's memory is bounded by the largest block, the
  * embeddings of the patterns hashed to it; `blockRows` only sets the
  * block count. Label-frequency pruning (optimization N) removes vertices
  * whose label cannot appear in any frequent pattern.
  */
object Fsm {

  final case class FsmConfig(
      minSupport: Long,
      maxEdges: Int = 3,
      labelPruning: Boolean = true,
      blockRows: Long = 1L << 16,
  ) {
    require(minSupport >= 1, s"minSupport must be at least 1, got $minSupport")
    require(maxEdges >= 1, s"maxEdges must be at least 1, got $maxEdges")
    require(blockRows >= 1, s"blockRows must be at least 1, got $blockRows")
  }

  final case class FsmMetrics(
      levelEmbeddings: Vector[Long],    // canonical embeddings per level
      extensionWork: Long,              // neighbor scans performed
      candidatePatterns: Vector[Int],   // patterns examined per level
      frequentPatterns: Vector[Int],    // patterns surviving per level
      numLabels: Int,
      numFrequentLabels: Int,
  )

  /** @param frequent    patterns with support >= cfg.minSupport
    * @param allSupports exact supports of every candidate pattern reached
    *                    during the mining run — by anti-monotonicity, the
    *                    frequent set for any σ' >= cfg.minSupport is
    *                    `allSupports.filter(_._2 >= σ')`
    */
  final case class FsmResult(frequent: Map[String, Long], allSupports: Map[String, Long],
                             metrics: FsmMetrics)

  /** An embedding: its pattern's canonical code and its data vertices in
    * canonical position order. Equality and hash are by value, so a hash
    * set deduplicates rows.
    */
  private final class Row(val code: String, val vs: Array[Int]) extends Serializable {
    override def hashCode: Int = 31 * code.hashCode + java.util.Arrays.hashCode(vs)
    override def equals(o: Any): Boolean = o match {
      case e: Row => java.util.Arrays.equals(vs, e.vs) && code == e.code
      case _      => false
    }
  }

  /** A resolved extension target: the child's canonical code plus every
    * isomorphism from the canonical child pattern onto the *as-grown*
    * child, so embedding tuples can be re-ordered into canonical position
    * order (and the lexicographic min over all isomorphisms is the unique
    * canonical embedding tuple, deduplicating automorphic rediscoveries).
    */
  private final case class Ext(code: String, isos: Vector[Array[Int]]) {
    def canonicalTuple(vs: Array[Int]): Array[Int] = {
      var best: Array[Int] = null
      for (phi <- isos) {
        val t = new Array[Int](phi.length)
        var i = 0
        while (i < phi.length) { t(i) = vs(phi(i)); i += 1 }
        if (best == null || java.util.Arrays.compare(t, best) < 0) best = t
      }
      best
    }
  }

  private def extension(grown: Pattern): Ext = {
    val code = grown.canonicalCode
    Ext(code, decodePattern(code).isomorphismsTo(grown).map(_.toArray))
  }

  /** Pattern machinery keyed by canonical code. One run broadcasts one
    * cache, so the tasks on an executor share it across levels. Embedding
    * tuples are in the position order of the pattern `decodePattern`
    * yields for their code.
    */
  private final class PatternCache extends Serializable {
    @transient private lazy val nodes = new ConcurrentHashMap[String, PatternNode]
    def apply(code: String): PatternNode = {
      val node = nodes.get(code) // computeIfAbsent locks even on a hit
      if (node != null) node else nodes.computeIfAbsent(code, new PatternNode(_))
    }
  }

  private final class PatternNode(code: String) {
    val pattern: Pattern = decodePattern(code)
    private val exts = new ConcurrentHashMap[Long, Ext]

    /** Extension: add edge (i, j) to the pattern; j == n means a new
      * vertex with label `newLabel`.
      */
    def extend(i: Int, j: Int, newLabel: Int): Ext = {
      val key = ((i << 4 | j).toLong << 32) | (newLabel & 0xffffffffL) // hashes spread by label
      val ext = exts.get(key)
      if (ext != null) ext
      else exts.computeIfAbsent(key, _ => {
        val grown = pattern.withEdge(i, j)
        extension(
          if (j == pattern.n) Pattern(grown.n, grown.adj, Some(pattern.labels.get :+ newLabel)) else grown)
      })
    }

    /** Orbit index of each position under the pattern's automorphisms. */
    lazy val orbits: Array[Int] = {
      val auts = pattern.automorphisms
      val orbitSets = (0 until pattern.n).map(i => auts.map(_(i)).toSet)
      val distinctOrbits = orbitSets.distinct
      orbitSets.map(distinctOrbits.indexOf).toArray
    }
  }

  def run(spark: SparkSession, g: CSRGraph, cfg: FsmConfig): FsmResult = {
    require(g.labeled, "FSM requires a labeled graph")
    val sc = spark.sparkContext

    // --- optimization N: label-frequency pruning ----------------------
    val labelFreq: Map[Int, Long] = g.labels.groupMapReduce(identity)(_ => 1L)(_ + _)
    val frequentLabels = labelFreq.filter(_._2 >= cfg.minSupport).keySet
    val mineGraph =
      if (!cfg.labelPruning) g
      else {
        // drop vertices whose label is infrequent: no frequent pattern can
        // contain them (its MNI would be capped below the threshold)
        val keep = (0 until g.n).filter(v => frequentLabels.contains(g.label(v))).toArray
        val newId = Array.fill(g.n)(-1)
        keep.zipWithIndex.foreach { case (old, nw) => newId(old) = nw }
        val es = g.canonicalEdges.flatMap { e =>
          val u = newId((e >>> 32).toInt); val v = newId((e & 0xffffffffL).toInt)
          if (u >= 0 && v >= 0) Some((u, v)) else None
        }
        CSRGraph.fromEdges(keep.length, es.toIndexedSeq, keep.map(g.label))
      }

    // Partition count models the bounded-BFS blocks (optimization M); it
    // never drops below the default parallelism, so every core gets a block.
    // A block holds every embedding of the patterns hashed to it, so the
    // largest block, not blockRows, bounds a task's memory.
    def blocks(rows: Long): Int =
      math.max(sc.defaultParallelism, math.min(256L, rows / cfg.blockRows + 1).toInt)

    val bc = sc.broadcast(mineGraph)
    val patterns = sc.broadcast(new PatternCache)
    // The persisted current level, and the next one while it is built:
    // both are released if a task throws. A partition is one block, an
    // array of embeddings: one cached object, which Spark sizes cheaply.
    var cur: RDD[Array[Row]] = null
    var next: RDD[Array[Row]] = null
    try {
      var frequent = Map.empty[String, Long]
      var allSupports = Map.empty[String, Long]
      var levelEmb = Vector.empty[Long]
      var candPats = Vector.empty[Int]
      var freqPats = Vector.empty[Int]
      var extWork = 0L

      // --- level 1: single-edge embeddings, built on the driver ----------
      val lvl1 = singleEdgeEmbeddings(mineGraph)
      extWork += mineGraph.numArcs.toLong
      var rows = lvl1.size.toLong
      var freqCodes = Set.empty[String]

      for (level <- 1 to cfg.maxEdges) {
        val parts = blocks(if (level == 1) rows else rows * 8)
        val found =
          if (level == 1) sc.parallelize(lvl1, parts)
          else { // --- levels 2..maxEdges: edge extension -----------------
            val fc = freqCodes
            extWork += estimateExtensionWork(rows, mineGraph)
            cur.mapPartitions { it =>
              val gg = bc.value
              val cache = patterns.value
              distinct(it.flatMap(_.iterator).filter(e => fc.contains(e.code)).flatMap(extensions(_, gg, cache)))
                .iterator
            }
          }
        // One shuffle keyed by pattern: a block dedupes its rows and, since
        // it holds all of its patterns' embeddings, counts their supports.
        next = shuffle(found, parts)
          .mapPartitions(it => Iterator(distinct(it)), preservesPartitioning = true)
          .persist()
        val counted = next.map(block => (block.length.toLong, blockSupports(block, patterns.value))).collect()
        if (cur != null) cur.unpersist()
        cur = next
        next = null
        rows = counted.map(_._1).sum
        levelEmb :+= rows

        val sup = counted.iterator.flatMap(_._2).toMap
        freqCodes = sup.filter(_._2 >= cfg.minSupport).keySet
        allSupports ++= sup
        frequent ++= sup.filter(_._2 >= cfg.minSupport)
        candPats :+= sup.size
        freqPats :+= freqCodes.size
      }

      FsmResult(
        frequent,
        allSupports,
        FsmMetrics(levelEmb, extWork, candPats, freqPats, labelFreq.size, frequentLabels.size),
      )
    } finally {
      Seq(cur, next).filter(_ != null).foreach(_.unpersist())
      bc.destroy()
      patterns.destroy()
    }
  }

  private def singleEdgeEmbeddings(g: CSRGraph): Vector[Row] = {
    val embs = Vector.newBuilder[Row]
    val exts = mutable.HashMap.empty[(Int, Int), Ext]
    var u = 0
    while (u < g.n) {
      var i = g.nbrStart(u)
      while (i < g.nbrEnd(u)) {
        val v = g.nbrs(i)
        if (u < v) {
          val (la, lb) = (g.label(u), g.label(v))
          val ext = exts.getOrElseUpdate((la, lb),
            extension(Patterns.fromEdges(2, Seq((0, 1)), Some(Vector(la, lb)))))
          embs += new Row(ext.code, ext.canonicalTuple(Array(u, v)))
        }
        i += 1
      }
      u += 1
    }
    embs.result()
  }

  /** Every one-edge extension of `emb`: an edge to a new vertex, or an
    * edge closing two positions that are not yet adjacent in the pattern.
    */
  private def extensions(emb: Row, g: CSRGraph, cache: PatternCache): Iterator[Row] = {
    val node = cache(emb.code)
    val p = node.pattern
    val vs = emb.vs
    val out = mutable.ArrayBuffer.empty[Row]
    var i = 0
    while (i < p.n) {
      val dv = vs(i)
      var x = g.nbrStart(dv)
      while (x < g.nbrEnd(dv)) {
        val w = g.nbrs(x)
        val j = vs.indexOf(w)
        if (j < 0) {
          val ext = node.extend(i, p.n, g.label(w))
          out += new Row(ext.code, ext.canonicalTuple(vs :+ w))
        } else if (i < j && !p.isEdge(i, j)) {
          val ext = node.extend(i, j, -1)
          out += new Row(ext.code, ext.canonicalTuple(vs))
        }
        x += 1
      }
      i += 1
    }
    out.iterator
  }

  /** MNI support of every pattern in `block`, which holds all of its
    * patterns' embeddings. The domain of position i is the union, over the
    * automorphism orbit of i, of the vertices in those positions; a
    * pattern's support is its smallest domain.
    */
  private def blockSupports(block: Array[Row], cache: PatternCache): Map[String, Long] = {
    val doms = new Domains(block.iterator.map(_.vs.length).sum)
    block.foreach { e =>
      val orbits = cache(e.code).orbits
      var i = 0
      while (i < e.vs.length) { doms.add(e.code, orbits(i), e.vs(i)); i += 1 }
    }
    doms.sizes.toSeq.groupMapReduce(_._1._1)(_._2)(math.min)
  }

  /** Up to `size` (pattern, orbit) -> vertex pairs, packed as (key id,
    * vertex) longs so that deduplication is a primitive sort rather than a
    * set of objects.
    */
  private final class Domains(size: Int) {
    private val idsByCode = mutable.HashMap.empty[String, Array[Int]] // by orbit, -1 = none yet
    private val keys = mutable.ArrayBuffer.empty[(String, Int)]
    private val buf = new Array[Long](size)
    private var len = 0

    def add(code: String, orbit: Int, v: Int): Unit = {
      val ids = idsByCode.getOrElseUpdate(code, Array.fill(8)(-1)) // a pattern has at most 8 orbits
      if (ids(orbit) < 0) { ids(orbit) = keys.length; keys += ((code, orbit)) }
      buf(len) = (ids(orbit).toLong << 32) | v
      len += 1
    }

    /** Distinct vertices per key. */
    def sizes: Iterator[((String, Int), Long)] = {
      java.util.Arrays.sort(buf, 0, len)
      val n = new Array[Long](keys.length)
      var i = 0
      while (i < len) { if (i == 0 || buf(i) != buf(i - 1)) n((buf(i) >>> 32).toInt) += 1; i += 1 }
      keys.iterator.zip(n.iterator)
    }
  }

  /** Moves each row to the block of its pattern, one of `parts`. A map
    * task sends one columnar block per destination, which Java
    * serialization writes as a few bulk arrays instead of one object per
    * row.
    */
  private def shuffle(rows: RDD[Row], parts: Int): RDD[Row] =
    rows.mapPartitions { it =>
      val out = Array.fill(parts)(new ColumnsBuilder)
      it.foreach(r => out(Math.floorMod(r.code.hashCode, parts)).add(r))
      Iterator.range(0, parts).filter(out(_).nonEmpty).map(p => (p, out(p).result()))
    }.partitionBy(new HashPartitioner(parts))
      .mapPartitions(_.flatMap(_._2.rows), preservesPartitioning = true)

  /** Rows in columns: row i is (codes(i), ints(ends(i - 1) until ends(i))). */
  private final class Columns(codes: Array[String], ends: Array[Int], ints: Array[Int]) extends Serializable {
    def rows: Iterator[Row] = Iterator.range(0, codes.length).map { i =>
      new Row(codes(i), java.util.Arrays.copyOfRange(ints, if (i == 0) 0 else ends(i - 1), ends(i)))
    }
  }

  private final class ColumnsBuilder {
    private val codes = mutable.ArrayBuilder.make[String]
    private val ends = mutable.ArrayBuilder.make[Int]
    private val ints = mutable.ArrayBuilder.make[Int]
    private var n = 0

    def nonEmpty: Boolean = codes.length > 0
    def add(r: Row): Unit = { codes += r.code; ints.addAll(r.vs); n += r.vs.length; ends += n }
    def result(): Columns = new Columns(codes.result(), ends.result(), ints.result())
  }

  private def distinct[T: ClassTag](it: Iterator[T]): Array[T] = {
    val seen = new java.util.HashSet[T]
    it.foreach(seen.add)
    seen.asScala.toArray
  }

  /** Extension work is one neighbor scan per (embedding, position): the
    * average degree times vertices per embedding.
    */
  private def estimateExtensionWork(embeddings: Long, g: CSRGraph): Long =
    embeddings * 3L * math.max(1L, 2L * g.numEdges / math.max(1, g.n))

  /** Rebuild a Pattern from its canonical code `n|bits:labels`. */
  def decodePattern(code: String): Pattern = {
    val Array(head, rest) = code.split("\\|", 2)
    val n = head.toInt
    val (bits, labels) = rest.split(":", 2) match {
      case Array(b, l) => (b, Some(l.split(",").map(_.toInt).toVector))
      case Array(b)    => (b, None)
    }
    val pairs = for { u <- 0 until n; v <- u + 1 until n } yield (u, v)
    val es = pairs.zip(bits).collect { case (e, '1') => e }
    Patterns.fromEdges(n, es, labels)
  }
}
