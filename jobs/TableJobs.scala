package repro.jobs

import org.apache.spark.sql.SparkSession
import repro.bench.Tables

/** spark-submit entrypoint for the paper's tables: prints each named table
  * (simulated seconds from measured work) next to the paper's reported
  * numbers, or every table when given no name.
  *
  * Example:
  *   spark-submit --class repro.jobs.TableJob repro.jar table4 multigpu
  */
object TableJob {
  private val tables: Seq[(String, (SparkSession, Tables.Loader) => String)] = Seq(
    "table4" -> ((s, l) => Tables.table4(s, l).render),
    "table5" -> ((s, l) => Tables.table5(s, l).render),
    "table6" -> ((s, l) => Tables.table6(s, l).render),
    "table7" -> ((s, l) => Tables.table7(s, l).render),
    "table8" -> ((s, l) => Tables.table8(s, l).render),
    "table9" -> ((s, l) => Tables.table9(s, l).render),
    "multigpu" -> ((s, l) => Tables.multiGpuScaling(s, l)._2),
  )

  def main(args: Array[String]): Unit = {
    val byName = tables.toMap
    val unknown = args.filterNot(byName.contains)
    if (unknown.nonEmpty) {
      Console.err.println(s"unknown table ${unknown.mkString(", ")}; " +
        s"usage: TableJob [${tables.map(_._1).mkString(" | ")}]...")
      sys.exit(2)
    }
    val names = if (args.isEmpty) tables.map(_._1) else args.toSeq
    val spark = SparkSession.builder
      .master(sys.env.getOrElse("SPARK_MASTER", "local[*]"))
      .appName("g2miner-tables")
      .getOrCreate()
    try names.foreach(n => println(byName(n)(spark, Tables.benchLoader)))
    finally spark.stop()
  }
}
