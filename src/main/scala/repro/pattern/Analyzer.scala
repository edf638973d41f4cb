package repro.pattern

/** The pattern analyzer (§4.2): chooses a matching order with a cost model
  * and generates a symmetry order (partial order among data vertices) that
  * breaks all automorphisms.
  *
  * A symmetry condition `(a, b)` means: the data vertex matched at search
  * position `a` must have a smaller id than the one matched at position `b`
  * (`v_a < v_b`). The generated condition set is *verified* at construction
  * time: over all rank assignments of distinct ids to positions, each
  * automorphism orbit must contain exactly one assignment satisfying every
  * condition — the paper's completeness + uniqueness guarantee.
  */
final case class SearchOrder(
    pattern: Pattern,          // original pattern
    order: Vector[Int],        // position i matches pattern vertex order(i)
    posPattern: Pattern,       // pattern re-indexed into position space
    conds: Vector[(Int, Int)], // (a, b): v_a < v_b, in position space
)

object Analyzer {

  /** Connected matching orders: every position (after the first) is
    * adjacent to some earlier position, so each DFS level has at least one
    * neighbor list to intersect.
    */
  def connectedOrders(p: Pattern): Iterator[Vector[Int]] =
    (0 until p.n).toVector.permutations.filter { ord =>
      (1 until p.n).forall(i => (0 until i).exists(j => p.isEdge(ord(i), ord(j))))
    }

  /** GraphZero-style cost model, aware of the symmetry order: estimate the
    * expected number of search-tree nodes per level given a generic
    * power-law input (average degree `d`, intersection selectivity `q`,
    * difference retention `r`), and sum the per-level costs. Lower is
    * better. Constraints (backward edges) early in the order shrink the
    * frontier fastest — the model rewards that. The order is costed with its
    * own verified [[symmetryConds]]: after level i the frontier keeps the
    * share of rank orderings of positions 0..i that satisfy the conditions
    * among them, over the same share for 0..i−1. A root condition thus
    * halves level 1; a chain v0 < v1 < v2 keeps 1/6 of level 2's orderings
    * where v0 < v1, v0 < v2 keeps 1/3.
    */
  def orderCost(p: Pattern, ord: Vector[Int], induced: Boolean,
                d: Double = 16.0, q: Double = 0.15, r: Double = 0.8): Double = {
    val pos = p.permuted(ord)
    cost(pos, symmetryConds(pos), induced, d, q, r)
  }

  private def cost(pos: Pattern, conds: Vector[(Int, Int)], induced: Boolean,
                   d: Double = 16.0, q: Double = 0.15, r: Double = 0.8): Double = {
    var frontier = 1.0
    var cost = 0.0
    var kept = 1.0 // share of the orderings of positions 0..i−1 the conditions keep
    for (i <- 1 until pos.n) {
      val conn = (0 until i).count(j => pos.isEdge(i, j))
      val anti = if (induced) i - conn else 0
      val candidates = d * math.pow(q, (conn - 1).toDouble) * math.pow(r, anti.toDouble)
      cost += frontier * (conn + anti) * d // set-op cost at this level
      val share = orderedShare(i + 1, conds)
      frontier *= candidates * share / kept
      kept = share
    }
    cost + frontier
  }

  /** Share of the rank orderings of positions 0..m−1 that satisfy the
    * conditions among those positions.
    */
  private def orderedShare(m: Int, conds: Vector[(Int, Int)]): Double = {
    val inside = conds.filter { case (a, b) => a < m && b < m }
    if (inside.isEmpty) 1.0
    else { val all = rankPerms(m); all.count(satisfies(_, inside)).toDouble / all.size }
  }

  /** Pick the best matching order. Cliques short-circuit to the identity
    * order (all orders are equivalent by symmetry). Deterministic
    * tie-breaking on the order itself.
    */
  def chooseOrder(p: Pattern, induced: Boolean): Vector[Int] = analyze(p, induced).order

  /** All rank assignments (position -> relative id rank) for orbit checks. */
  private def rankPerms(k: Int): Vector[Vector[Int]] =
    (0 until k).toVector.permutations.toVector

  private def satisfies(rank: Vector[Int], conds: Seq[(Int, Int)]): Boolean =
    conds.forall { case (a, b) => rank(a) < rank(b) }

  /** Orbits of rank assignments under the automorphism group: two
    * assignments describe the same data subgraph iff one is the other
    * composed with an automorphism (`rank2 = rank1 ∘ π`).
    */
  private def orbits(k: Int, auts: Vector[Vector[Int]]): Vector[Vector[Vector[Int]]] = {
    val all = rankPerms(k)
    val seen = scala.collection.mutable.HashSet.empty[Vector[Int]]
    val out = Vector.newBuilder[Vector[Vector[Int]]]
    for (r <- all if !seen.contains(r)) {
      val orb = auts.map(pi => pi.map(r)).distinct
      orb.foreach(seen += _)
      out += orb
    }
    out.result()
  }

  /** Check the paper's uniqueness+completeness invariant: each orbit keeps
    * exactly one representative under `conds`.
    */
  def condsValid(pos: Pattern, conds: Seq[(Int, Int)]): Boolean =
    onePerOrbit(orbits(pos.n, pos.automorphisms), conds)

  private def onePerOrbit(orbs: Vector[Vector[Vector[Int]]], conds: Seq[(Int, Int)]): Boolean =
    orbs.forall(_.count(satisfies(_, conds)) == 1)

  /** Generate symmetry conditions for the given order.
    *
    * Cliques get the total chain `v_{i+1} < v_i` (the classical total
    * order). Otherwise we use the lex-min construction (GraphZero [73]):
    * for every non-identity automorphism σ, add `v_a < v_{σ(a)}` where `a`
    * is σ's first non-fixed position. A rank assignment satisfies all
    * those conditions iff it is lexicographically smaller than each of its
    * automorphic images — i.e. iff it is the unique lex-min of its orbit,
    * which gives exactly the paper's completeness + uniqueness guarantee.
    * Redundant conditions are then dropped while validity (brute-force
    * checked) is preserved. The automorphisms and their orbits are
    * computed once per call; the initial set and every drop candidate are
    * checked against them.
    */
  def symmetryConds(pos: Pattern): Vector[(Int, Int)] = {
    val k = pos.n
    val all = pos.automorphisms
    lazy val orbs = orbits(k, all) // not needed by an asymmetric pattern
    if (pos.isClique && pos.labels.isEmpty) {
      val chain = (1 until k).map(i => (i, i - 1)).toVector // v_i < v_{i-1}
      require(onePerOrbit(orbs, chain), "clique chain conditions failed validation")
      return chain
    }
    val id = (0 until k).toVector
    val auts = all.filterNot(_ == id)
    if (auts.isEmpty) return Vector.empty
    var conds = auts.map { sigma =>
      val a = (0 until k).find(i => sigma(i) != i).get
      (a, sigma(a))
    }.distinct.sortBy { case (a, b) => (a, b) }
    require(onePerOrbit(orbs, conds), s"lex-min conditions invalid for $pos: $conds")
    // minimize: drop any condition implied by the rest
    for (c <- conds) {
      val without = conds.filterNot(_ == c)
      if (onePerOrbit(orbs, without)) conds = without
    }
    conds
  }

  /** Full analysis: the chosen order with its verified symmetry conditions.
    * Each candidate order's conditions are computed once, for its cost, and
    * the winner keeps them.
    */
  def analyze(p: Pattern, induced: Boolean): SearchOrder = {
    def withConds(ord: Vector[Int]): SearchOrder = {
      val pos = p.permuted(ord)
      SearchOrder(p, ord, pos, symmetryConds(pos))
    }
    if (p.isClique) return withConds((0 until p.n).toVector)
    // Prefer a hub root if one exists (enables local-graph search, §5.4).
    val all = connectedOrders(p).toVector
    val hubs = p.hubVertices.toSet
    val pool = if (hubs.nonEmpty) {
      val hubFirst = all.filter(o => hubs.contains(o.head))
      if (hubFirst.nonEmpty) hubFirst else all
    } else all
    pool.map(withConds).minBy(so => (cost(so.posPattern, so.conds, induced), so.order.mkString(",")))
  }
}
