package repro.plan

import repro.pattern.{Analyzer, Pattern, SearchOrder}

/** Per-level constraints for search position `i` (1-based level = position).
  *
  * The candidate set for position i is
  *   W_i = ⋂_{j ∈ conn} N(v_j)  \  ⋃_{j ∈ anti} N(v_j)
  * then filtered by symmetry bounds (`uppers`: v_i < v_j, `lowers`:
  * v_i > v_j) and injectivity (v_i differs from every matched vertex).
  * `anti` is populated only for vertex-induced (motif) plans.
  */
final case class LevelSpec(
    conn: Vector[Int],
    anti: Vector[Int],
    uppers: Vector[Int],
    lowers: Vector[Int],
) {
  /** Set-expression identity — two levels with equal sets share a buffer. */
  def sameSets(other: LevelSpec): Boolean = conn == other.conn && anti == other.anti
  def maxRef: Int = (conn ++ anti).max
}

/** A pattern-specific search plan: the artifact the paper's code generator
  * turns into CUDA; here it is interpreted by [[repro.engine.DfsEngine]].
  * The test-scope BFS oracle compiles the same plan into DataFrame joins.
  *
  * @param bufferReuse for level i, `Some(j)` if W_i is identical to W_j
  *                    (j < i) and can be reused without recomputation —
  *                    the paper's buffering optimization (K).
  * @param extendsParent for level i, true if W_i is computed incrementally
  *                    from level i−1's candidate set (i−1 ≥ 2): W_{i−1}'s
  *                    expression is part of W_i's and W_i's candidates lie
  *                    inside W_{i−1}'s bounds, so only the extra lists are
  *                    merged (AutoMine/GraphZero cross-level reuse). Never
  *                    set on a level that reuses a set or lends its own.
  * @param fusedCount  true when the last two levels draw from the same
  *                    buffer with a single `v_last < v_prev` bond and no
  *                    other constraints on the last level: counting can
  *                    replace the two innermost loops with C(|W|, 2)
  *                    (counting-only pruning, optimization D; Algorithm 3).
  */
final case class SearchPlan(
    searchOrder: SearchOrder,
    induced: Boolean,
    levels: Vector[LevelSpec], // levels(i) constrains position i, i >= 1
    bufferReuse: Vector[Option[Int]],
    extendsParent: Vector[Boolean],
    fusedCount: Boolean,
) {
  def k: Int = searchOrder.pattern.n
  def pattern: Pattern = searchOrder.pattern
  def conds: Vector[(Int, Int)] = searchOrder.conds

  /** Condition between positions 0 and 1, if any: enables edgelist
    * reduction (optimization J). Returns the direction: Some(true) means
    * v_0 < v_1, Some(false) means v_0 > v_1.
    */
  def rootEdgeCond: Option[Boolean] =
    conds.collectFirst {
      case (0, 1) => true
      case (1, 0) => false
    }

  /** Position 0 is a hub of the pattern: the whole subtree lives inside
    * N(v_0), enabling local graph search (optimization E).
    */
  def hubRooted: Boolean = {
    val pos = searchOrder.posPattern
    pos.degree(0) == pos.n - 1
  }
}

object Planner {

  /** Build the executable plan for a pattern.
    *
    * @param induced      vertex-induced (motifs) vs edge-induced/non-induced
    *                     (subgraph listing, cliques)
    * @param countingOnly enable counting-only fusion detection (opt. D)
    */
  def plan(p: Pattern, induced: Boolean, countingOnly: Boolean = false): SearchPlan =
    fromOrder(Analyzer.analyze(p, induced), induced, countingOnly)

  def fromOrder(so: SearchOrder, induced: Boolean, countingOnly: Boolean): SearchPlan = {
    val pos = so.posPattern
    val k = pos.n
    val levels = (1 until k).toVector.map { i =>
      val conn = (0 until i).filter(j => pos.isEdge(i, j)).toVector
      val anti = if (induced) (0 until i).filterNot(j => pos.isEdge(i, j)).toVector else Vector.empty
      val uppers = so.conds.collect { case (a, b) if a == i && b < i => b }
      val lowers = so.conds.collect { case (a, b) if b == i && a < i => a }
      require(conn.nonEmpty, s"disconnected matching order at position $i for $pos")
      LevelSpec(conn, anti, uppers, lowers)
    }

    // Buffer reuse: level i can reuse level j's buffer iff the set
    // expressions match and neither references any position in (j-1, i)
    // (a buffer computed on entering position j only reads v_0..v_{j-1},
    // which are fixed for the whole subtree below j).
    val reuse = Vector.tabulate(levels.length) { li =>
      val i = li + 1
      (1 until i).reverse.collectFirst {
        case j if levels(j - 1).sameSets(levels(li)) && levels(li).maxRef < j => j
      }
    }

    // Incremental sets: level i starts from level i−1's candidates when
    // W_{i−1}'s lists are among W_i's and each of level i−1's bound lists
    // binds level i too — it is empty, among level i's own, or implied by
    // level i's bound on v_{i−1} (which lies inside level i−1's bounds).
    // Level i must neither reuse a set nor lend its own: a borrower cuts
    // the whole W_i to its own bounds, which need not imply level i−1's.
    val extend = Vector.tabulate(levels.length) { li =>
      val i = li + 1
      i >= 3 && reuse(li).isEmpty && !reuse.contains(Some(i)) && {
        val own = levels(li); val par = levels(li - 1)
        def binds(pb: Vector[Int], ob: Vector[Int]) = pb.forall(ob.contains) || ob.contains(i - 1)
        par.conn.forall(own.conn.contains) && par.anti.forall(own.anti.contains) &&
          binds(par.uppers, own.uppers) && binds(par.lowers, own.lowers)
      }
    }

    // Counting-only fusion (diamond-style, Algorithm 3): last level reuses
    // the previous level's buffer, carries exactly the single bond
    // v_{k-1} < v_{k-2}, and the previous level has no bounds of its own.
    val fused = countingOnly && !induced && k >= 4 && {
      val last = levels(k - 2); val prev = levels(k - 3)
      reuse(k - 2).contains(k - 2) &&
        ((last.uppers == Vector(k - 2) && last.lowers.isEmpty) ||
          (last.lowers == Vector(k - 2) && last.uppers.isEmpty)) &&
        prev.uppers.isEmpty && prev.lowers.isEmpty
    }

    SearchPlan(so, induced, levels, reuse, extend, fused)
  }

  /** Plan for a k-clique on an *oriented* (DAG) graph: orientation subsumes
    * all symmetry conditions (optimization A), so every level intersects
    * all previous out-neighbor lists with no bounds.
    */
  def orientedCliquePlan(k: Int): SearchPlan = {
    val p = repro.pattern.Patterns.clique(k)
    fromOrder(SearchOrder(p, (0 until k).toVector, p, Vector.empty), induced = false, countingOnly = false)
  }
}
