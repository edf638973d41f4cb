package repro.pattern

import Patterns._

/** Human names for the 3- and 4-motifs, for test names and messages. */
object PatternNames {
  private lazy val motifNames: Map[String, String] = Map(
    wedge.canonicalCode          -> "wedge",
    triangle.canonicalCode       -> "triangle",
    path(4).canonicalCode        -> "4-path",
    star(4).canonicalCode        -> "3-star",
    cycle4.canonicalCode         -> "4-cycle",
    tailedTriangle.canonicalCode -> "tailed-tri",
    diamond.canonicalCode        -> "diamond",
    clique(4).canonicalCode      -> "4-clique",
  )

  def nameOf(p: Pattern): String =
    motifNames.getOrElse(p.canonicalCode, if (p.isClique) s"${p.n}-clique" else p.canonicalCode)
}
