package repro.jobs

import org.apache.spark.sql.SparkSession

import repro.lake.RepoStats

/** spark-submit entrypoint reproducing Table I (repository
  * characteristics): `spark-submit --class repro.jobs.TableIJob <jar>`.
  */
object TableIJob {

  /** Paper's Table I rows for side-by-side printing. */
  val PaperRows: Seq[(String, String, String, String, String)] = Seq(
    ("Open-Data", "69K", "29.5M", "28.6M", "119G"),
    ("Kaggle", "1950", "91231", "6.7M", "18G"),
  )

  def render(rows: Seq[RepoStats.Characteristics]): String = {
    val sb = new StringBuilder
    sb.append("TABLE I: Characteristics of Datasets (paper vs measured, repos scaled ~1/100)\n")
    sb.append(f"${"Dataset"}%-16s ${"#Tables"}%-14s ${"#Columns"}%-16s ${"#Joinable"}%-16s ${"Size"}%-14s\n")
    PaperRows.zip(rows).foreach { case ((pn, pt, pc, pj, ps), m) =>
      sb.append(f"$pn%-16s ${pt + " | " + m.nTables}%-14s ${pc + " | " + m.nColumns}%-16s " +
        f"${pj + " | " + m.nJoinablePairs}%-16s ${ps + " | " + (m.sizeBytes / (1024 * 1024)) + "M"}%-14s\n")
    }
    sb.append("(left of '|' = paper, right = this reproduction)\n")
    sb.toString
  }

  def compute(spark: SparkSession): Seq[RepoStats.Characteristics] = Seq(
    RepoStats.characteristics(spark, "Open-Data-lite", RepoStats.openDataLite(spark)),
    RepoStats.characteristics(spark, "Kaggle-lite", RepoStats.kaggleLite(spark)),
  )

  def main(args: Array[String]): Unit = {
    val spark = SparkSession.builder().appName("metam-table-i").getOrCreate()
    try println(render(compute(spark)))
    finally spark.stop()
  }
}
