package repro.engine

import repro.graph.CSRGraph
import repro.pattern.Pattern

/** Pattern-oblivious brute-force reference: counts injective matches by
  * backtracking with no symmetry breaking, then divides by |Aut| to get
  * unique subgraph counts. Exponentially slower than the engines — used
  * only by tests and tiny inputs as the ground truth every engine must hit.
  */
object NaiveMatcher {

  /** Unique subgraph count (non-induced for SL/cliques, induced for motifs). */
  def countUnique(g: CSRGraph, p: Pattern, induced: Boolean): Long = {
    val auto = p.automorphisms.size.toLong
    val total = countInjective(g, p, induced)
    require(total % auto == 0, s"injective count $total not divisible by |Aut|=$auto")
    total / auto
  }

  /** Injective homomorphisms (ordered matches). */
  def countInjective(g: CSRGraph, p: Pattern, induced: Boolean): Long = {
    val k = p.n
    val matched = new Array[Int](k)
    var cnt = 0L

    def ok(i: Int, v: Int): Boolean = {
      var j = 0
      while (j < i) {
        if (matched(j) == v) return false
        val need = p.isEdge(i, j)
        val have = hasEdge(g, v, matched(j))
        if (need && !have) return false
        if (induced && !need && have) return false
        j += 1
      }
      true
    }

    def rec(i: Int): Unit = {
      if (i == k) { cnt += 1; return }
      // prune: candidates restricted to a matched neighbor's list if any
      val anchor = (0 until i).find(j => p.isEdge(i, j))
      anchor match {
        case Some(j) =>
          val u = matched(j)
          var x = g.nbrStart(u)
          while (x < g.nbrEnd(u)) {
            val v = g.nbrs(x)
            if (ok(i, v)) { matched(i) = v; rec(i + 1) }
            x += 1
          }
        case None =>
          var v = 0
          while (v < g.n) {
            if (ok(i, v)) { matched(i) = v; rec(i + 1) }
            v += 1
          }
      }
    }

    rec(0)
    cnt
  }

  /** Edge test by binary search in u's sorted neighbor list. */
  def hasEdge(g: CSRGraph, u: Int, v: Int): Boolean =
    java.util.Arrays.binarySearch(g.nbrs, g.nbrStart(u), g.nbrEnd(u), v) >= 0
}
