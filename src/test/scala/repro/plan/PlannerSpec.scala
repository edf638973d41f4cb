package repro.plan

import org.scalatest.funsuite.AnyFunSuite
import repro.pattern.Patterns

class PlannerSpec extends AnyFunSuite {

  test("every level of every motif plan has a backward connection") {
    for (k <- Seq(3, 4); p <- Patterns.motifs(k); induced <- Seq(true, false)) {
      val plan = Planner.plan(p, induced)
      assert(plan.levels.forall(_.conn.nonEmpty))
      assert(plan.levels.length == p.n - 1)
    }
  }

  test("induced plans carry anti-connectivity, non-induced do not") {
    val pInd = Planner.plan(Patterns.cycle4, induced = true)
    val pNon = Planner.plan(Patterns.cycle4, induced = false)
    assert(pInd.levels.exists(_.anti.nonEmpty))
    assert(pNon.levels.forall(_.anti.isEmpty))
  }

  test("diamond plan reuses the triangle buffer at the last level") {
    val plan = Planner.plan(Patterns.diamond, induced = false)
    // positions 2 and 3 both intersect N(v0) ∩ N(v1)
    assert(plan.levels(1).conn == Vector(0, 1))
    assert(plan.levels(2).conn == Vector(0, 1))
    assert(plan.bufferReuse(2) == Some(2))
  }

  test("diamond fuses under counting-only") {
    val plan = Planner.plan(Patterns.diamond, induced = false, countingOnly = true)
    assert(plan.fusedCount)
  }

  test("4-cycle does not fuse under counting-only (paper §5.4)") {
    val plan = Planner.plan(Patterns.cycle4, induced = false, countingOnly = true)
    assert(!plan.fusedCount)
  }

  test("clique plans do not fuse (chain bounds at every level)") {
    val plan = Planner.plan(Patterns.clique(4), induced = false, countingOnly = true)
    assert(!plan.fusedCount)
  }

  test("oriented clique plan has no bounds and full connectivity") {
    for (k <- 3 to 6) {
      val plan = Planner.orientedCliquePlan(k)
      assert(plan.levels.forall(l => l.uppers.isEmpty && l.lowers.isEmpty && l.anti.isEmpty), s"k=$k")
      assert(plan.levels.map(_.conn) == (1 until k).map(i => (0 until i).toVector), s"k=$k")
      assert(plan.conds.isEmpty && plan.bufferReuse.forall(_.isEmpty) && !plan.fusedCount, s"k=$k")
    }
  }

  test("rootEdgeCond present for symmetric-rooted patterns") {
    assert(Planner.plan(Patterns.triangle, induced = false).rootEdgeCond.isDefined)
    assert(Planner.plan(Patterns.diamond, induced = false).rootEdgeCond.isDefined)
  }

  test("hubRooted for cliques, diamond, star; not for 4-cycle/4-path") {
    assert(Planner.plan(Patterns.clique(4), induced = false).hubRooted)
    assert(Planner.plan(Patterns.diamond, induced = false).hubRooted)
    assert(Planner.plan(Patterns.star(4), induced = true).hubRooted)
    assert(!Planner.plan(Patterns.cycle4, induced = false).hubRooted)
    assert(!Planner.plan(Patterns.path(4), induced = false).hubRooted)
  }

  test("bounds reference earlier positions only") {
    for (p <- Patterns.motifs(4); induced <- Seq(true, false)) {
      val plan = Planner.plan(p, induced)
      plan.levels.zipWithIndex.foreach { case (l, li) =>
        val i = li + 1
        assert((l.uppers ++ l.lowers ++ l.conn ++ l.anti).forall(_ < i))
      }
    }
  }

  test("incremental levels: levels >= 3 of unoriented cliques and level 3 of the induced 3-star") {
    for (k <- Seq(4, 5)) {
      val plan = Planner.plan(Patterns.clique(k), induced = false)
      assert(plan.extendsParent == Vector.tabulate(k - 1)(li => li + 1 >= 3), s"k=$k")
    }
    assert(Planner.plan(Patterns.star(4), induced = true).extendsParent == Vector(false, false, true))
    for (induced <- Seq(false, true))
      assert(Planner.plan(Patterns.cycle4, induced).extendsParent.forall(!_), s"induced=$induced")
  }

  test("an incremental level extends a set its own expression and bounds contain") {
    for (p <- Patterns.motifs(4) ++ Patterns.motifs(5) :+ Patterns.clique(6); induced <- Seq(true, false)) {
      val plan = Planner.plan(p, induced)
      assert(plan.extendsParent.length == plan.levels.length)
      plan.extendsParent.zipWithIndex.foreach {
        case (true, li) =>
          val i = li + 1; val own = plan.levels(li); val par = plan.levels(li - 1)
          assert(i >= 3)
          assert(plan.bufferReuse(li).isEmpty && !plan.bufferReuse.contains(Some(i)))
          assert(par.conn.toSet.subsetOf(own.conn.toSet) && par.anti.toSet.subsetOf(own.anti.toSet))
          assert(par.uppers.toSet.subsetOf(own.uppers.toSet) || own.uppers.contains(i - 1))
          assert(par.lowers.toSet.subsetOf(own.lowers.toSet) || own.lowers.contains(i - 1))
        case _ => ()
      }
    }
  }

  test("buffer reuse never references a level whose inputs changed") {
    for (p <- Patterns.motifs(4) ++ Patterns.motifs(5); induced <- Seq(true, false)) {
      val plan = Planner.plan(p, induced)
      plan.bufferReuse.zipWithIndex.foreach {
        case (Some(j), li) =>
          val i = li + 1
          assert(j < i)
          assert(plan.levels(li).maxRef < j)
          assert(plan.levels(j - 1).sameSets(plan.levels(li)))
        case _ => ()
      }
    }
  }
}
