package repro.jobs

import org.apache.spark.sql.SparkSession

import repro.core.{Runner, SearchResult}
import repro.lake.{Scenario, ScenarioGen, TaskKind}

/** spark-submit entrypoint reproducing Table II (utility of METAM and the
  * baselines within a fixed query budget across six datasets):
  * `spark-submit --class repro.jobs.TableIIJob <jar> [budget]`.
  */
object TableIIJob {

  val Methods: Vector[String] = Vector("METAM", "MW", "Overlap", "Uniform")

  /** Paper's Table II utilities, per dataset and method. */
  val PaperRows: Seq[(String, Map[String, Double])] = Seq(
    ("Schools (C)", Map("METAM" -> 0.80, "MW" -> 0.20, "Overlap" -> 0.0, "Uniform" -> 0.20)),
    ("Taxi (C)", Map("METAM" -> 1.0, "MW" -> 0.5, "Overlap" -> 0.5, "Uniform" -> 0.5)),
    ("Crime (C)", Map("METAM" -> 0.90, "MW" -> 0.20, "Overlap" -> 0.1, "Uniform" -> 0.1)),
    ("Housing prices (C)", Map("METAM" -> 0.75, "MW" -> 0.25, "Overlap" -> 0.0, "Uniform" -> 0.25)),
    ("Pharmacy", Map("METAM" -> 0.95, "MW" -> 0.43, "Overlap" -> 0.43, "Uniform" -> 0.25)),
    ("Grocery stores", Map("METAM" -> 0.92, "MW" -> 0.37, "Overlap" -> 0.10, "Uniform" -> 0.17)),
  )

  /** Utility threshold per scenario: causal tasks target full recovery of
    * the ground truth; classification tasks a high-F1 plateau.
    */
  def thetaFor(s: Scenario): Double = s.spec.kind match {
    case TaskKind.Causal => 1.0
    case _ => 0.97
  }

  /** Each scenario's results, by method. */
  def runAll(spark: SparkSession, budget: Int): Seq[(String, Map[String, SearchResult])] =
    ScenarioGen.tableII().map(s => s.spec.name -> Runner.run(spark, s, thetaFor(s), budget, Methods).results)

  /** What each method returned, as `method=utility/size`: its solution's
    * utility and number of augmentations, which can fall short of the
    * curve maximum [[render]] shows.
    */
  def returned(results: Map[String, SearchResult]): String =
    Methods.map(m => f"$m=${results(m).utility}%.2f/${results(m).solution.size}").mkString(" ")

  def render(measured: Seq[(String, Map[String, Double])], budget: Int): String = {
    val sb = new StringBuilder
    sb.append(s"TABLE II: Utility within a $budget-query budget (paper used <=1000 queries)\n")
    sb.append(f"${"Dataset"}%-20s ${Methods.map(m => f"$m%-16s").mkString}\n")
    PaperRows.zip(measured).foreach { case ((pname, paper), (_, ours)) =>
      val cells = Methods.map(m => f"${paper(m)}%.2f | ${ours(m)}%.2f    ").mkString
      sb.append(f"$pname%-20s $cells\n")
    }
    sb.append("(each cell: paper | this reproduction)\n")
    sb.toString
  }

  def main(args: Array[String]): Unit = {
    val budget = args.headOption.map(_.toInt).getOrElse(250)
    val spark = SparkSession.builder().appName("metam-table-ii").getOrCreate()
    try {
      val runs = runAll(spark, budget)
      println(render(runs.map { case (name, rs) => name -> rs.view.mapValues(_.utilityAt(budget)).toMap }, budget))
      runs.foreach { case (name, rs) => println(f"$name%-20s returned ${returned(rs)}") }
    } finally spark.stop()
  }
}
