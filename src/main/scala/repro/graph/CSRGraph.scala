package repro.graph

import repro.setops.{ListBitmap, SetOps, WorkCounter}

/** Immutable CSR adjacency for an undirected simple graph (the paper's
  * in-memory format, §4.2). Neighbor lists are sorted ascending so sorted
  * set primitives and symmetry-break early exit apply. Broadcast to
  * executors by the engines.
  *
  * The constructor checks the O(n) structure of the arrays; [[validate]]
  * checks the O(|E|) list invariants every engine assumes.
  *
  * @param labels vertex labels for FSM graphs (empty array = unlabeled)
  */
final class CSRGraph(
    val n: Int,
    val offsets: Array[Int],
    val nbrs: Array[Int],
    val labels: Array[Int],
) extends Serializable {
  require(offsets.length == n + 1, s"offsets has ${offsets.length} entries, expected n + 1 = ${n + 1}")
  require(offsets(0) == 0, s"offsets(0) = ${offsets(0)}, expected 0")
  require((0 until n).forall(v => offsets(v) <= offsets(v + 1)), "offsets decrease")
  require(offsets(n) == nbrs.length, s"offsets(n) = ${offsets(n)}, but nbrs has ${nbrs.length} entries")
  require(labels.isEmpty || labels.length == n, s"${labels.length} labels for $n vertices")

  /** Checks that every neighbor list is strictly ascending and every id is
    * in [0, n). O(|E|); `fromEdges`, `oriented` and `localGraph` hold it by
    * construction, so it is for graphs built from raw arrays.
    */
  def validate(): Unit =
    for (v <- 0 until n; i <- offsets(v) until offsets(v + 1)) {
      require(nbrs(i) >= 0 && nbrs(i) < n, s"neighbor ${nbrs(i)} of vertex $v out of range for n = $n")
      require(i == offsets(v) || nbrs(i - 1) < nbrs(i), s"neighbor list of vertex $v not strictly ascending")
    }

  def numEdges: Long = nbrs.length / 2L // undirected: each edge stored twice
  def numArcs: Int = nbrs.length
  def deg(v: Int): Int = offsets(v + 1) - offsets(v)
  def nbrStart(v: Int): Int = offsets(v)
  def nbrEnd(v: Int): Int = offsets(v + 1)
  def labeled: Boolean = labels.nonEmpty
  def label(v: Int): Int = labels(v)

  lazy val maxDegree: Int = if (n == 0) 0 else (0 until n).map(deg).max

  /** Canonical undirected edges (u < v). */
  def canonicalEdges: Array[Long] = {
    val out = Array.ofDim[Long](numEdges.toInt)
    var o = 0
    var u = 0
    while (u < n) {
      var i = offsets(u)
      while (i < offsets(u + 1)) {
        val v = nbrs(i)
        if (u < v) { out(o) = (u.toLong << 32) | v.toLong; o += 1 }
        i += 1
      }
      u += 1
    }
    out
  }

  /** Orientation (optimization A, §4.2): convert to a DAG by keeping edge
    * u→v iff (deg(u), u) < (deg(v), v). Halves arc count, caps the new
    * "max degree" near the degeneracy, eliminates symmetry checks for
    * cliques. The result is returned as a CSRGraph whose lists are the
    * out-neighbors.
    */
  lazy val oriented: CSRGraph = {
    def rank(v: Int): Long = (deg(v).toLong << 32) | v.toLong
    val outDeg = new Array[Int](n)
    var u = 0
    while (u < n) {
      var i = offsets(u)
      while (i < offsets(u + 1)) {
        if (rank(u) < rank(nbrs(i))) outDeg(u) += 1
        i += 1
      }
      u += 1
    }
    val off = new Array[Int](n + 1)
    var s = 0
    u = 0
    while (u < n) { off(u) = s; s += outDeg(u); u += 1 }
    off(n) = s
    val nb = new Array[Int](s)
    val cur = java.util.Arrays.copyOf(off, n)
    u = 0
    while (u < n) {
      var i = offsets(u)
      while (i < offsets(u + 1)) {
        val v = nbrs(i)
        if (rank(u) < rank(v)) { nb(cur(u)) = v; cur(u) += 1 }
        i += 1
      }
      u += 1
    }
    // out-lists inherit sortedness from the input lists
    new CSRGraph(n, off, nb, labels)
  }

  /** Local graph (optimization E, Fig. 7): the subgraph induced by N(root),
    * with vertices renamed 0..d-1 preserving id order (so symmetry bounds
    * survive renaming). Returns (localGraph, localId -> globalId) and adds
    * the set-op work spent building it to `wc`, as [[localList]].
    */
  def localGraph(root: Int, wc: WorkCounter, rootBits: ListBitmap = new ListBitmap(n)): (CSRGraph, Array[Int]) = {
    val d = deg(root)
    val loc = new Array[Int](d)
    val adjLists = Array.tabulate(d)(li => java.util.Arrays.copyOf(loc, localList(root, li, wc, rootBits, loc)))
    val off = new Array[Int](d + 1)
    var s = 0
    var li = 0
    while (li < d) { off(li) = s; s += adjLists(li).length; li += 1 }
    off(d) = s
    val nb = new Array[Int](s)
    li = 0
    while (li < d) { System.arraycopy(adjLists(li), 0, nb, off(li), adjLists(li).length); li += 1 }
    (new CSRGraph(d, off, nb, Array.empty), java.util.Arrays.copyOfRange(nbrs, offsets(root), offsets(root + 1)))
  }

  /** The list of local vertex `li`, the li-th neighbour of `root`, in the
    * local graph of `root`: its local neighbours, ascending, in
    * loc(0 until len), a buffer of at least deg(root) ints. Returns len.
    * N(root) is marked in `rootBits` (capacity at least n; free when it
    * holds N(root) already) and the neighbour's list probes it; the work
    * added to `wc` is the linear merge's step count.
    */
  def localList(root: Int, li: Int, wc: WorkCounter, rootBits: ListBitmap, loc: Array[Int]): Int = {
    val s = offsets(root); val d = deg(root); val g = nbrs(s + li)
    rootBits.mark(nbrs, s, d)
    val len = SetOps.intersectProbed(nbrs, s, d, nbrs, offsets(g), deg(g), rootBits, loc, wc)
    // rename in place: a global id's local id is its position in N(root)
    var i = 0; var from = s
    while (i < len) { from = java.util.Arrays.binarySearch(nbrs, from, s + d, loc(i)); loc(i) = from - s; i += 1 }
    len
  }
}

object CSRGraph {

  /** Build from undirected edges; dedups, drops self-loops, symmetrizes. */
  def fromEdges(n: Int, edges: Seq[(Int, Int)], labels: Array[Int] = Array.empty): CSRGraph = {
    val set = new java.util.HashSet[Long](edges.size * 2)
    edges.foreach { case (a, b) =>
      if (a != b) {
        val u = math.min(a, b); val v = math.max(a, b)
        require(u >= 0 && v < n, s"edge ($a,$b) out of range for n=$n")
        set.add((u.toLong << 32) | v.toLong)
      }
    }
    val degA = new Array[Int](n)
    val it0 = set.iterator()
    while (it0.hasNext) {
      val e = it0.next()
      degA((e >>> 32).toInt) += 1; degA((e & 0xffffffffL).toInt) += 1
    }
    val off = new Array[Int](n + 1)
    var s = 0
    var v = 0
    while (v < n) { off(v) = s; s += degA(v); v += 1 }
    off(n) = s
    val nb = new Array[Int](s)
    val cur = java.util.Arrays.copyOf(off, n)
    val it = set.iterator()
    while (it.hasNext) {
      val e = it.next()
      val u = (e >>> 32).toInt; val w = (e & 0xffffffffL).toInt
      nb(cur(u)) = w; cur(u) += 1
      nb(cur(w)) = u; cur(w) += 1
    }
    v = 0
    while (v < n) { java.util.Arrays.sort(nb, off(v), off(v + 1)); v += 1 }
    new CSRGraph(n, off, nb, labels)
  }
}
