package repro

import org.apache.spark.sql.{DataFrame, SparkSession}
import org.apache.spark.sql.functions._
import org.apache.spark.sql.types._

/** Synthetic data repositories for Table I's repository statistics
  * (`RepoStats`): [[repoCells]] generates one repository as a tall cell
  * DataFrame, deterministic in its arguments.
  */
object SynthData {

  /** Cell-level synthetic data repository — the schema METAM (goal-oriented
    * data discovery) is evaluated on. Produces a tall
    * (table, col, __rowid, value) DataFrame entirely with Spark range
    * transformations (no driver materialisation), sized for Table-I-style
    * repository statistics.
    *
    * Per table `t`: `10 + t % colSpread` columns and `40 + t % rowSpread`
    * rows. The first `keyCols` columns of each table are join keys drawing
    * values from one of `nDomains` shared domains (→ joinable column
    * pairs); remaining columns hold repository-unique values (→ never
    * joinable), mirroring open-data repositories where only a small slice
    * of columns join.
    */
  def repoCells(
      spark: SparkSession,
      nTables: Int,
      keyCols: Int = 2,
      nDomains: Int = 30,
      domainSize: Int = 100,
      colSpread: Int = 60,
      rowSpread: Int = 80,
      seed: Long = 6,
  ): DataFrame = {
    import spark.implicits._
    spark.range(nTables)
      .select(
        $"id" as "t",
        explode(sequence(lit(0), (lit(10) + pmod($"id", lit(colSpread))).cast(IntegerType))) as "c",
      )
      .select(
        $"t", $"c",
        explode(sequence(lit(0), (lit(40) + pmod($"t", lit(rowSpread))).cast(IntegerType))) as "r",
      )
      .select(
        concat(lit("table_"), $"t") as "table",
        concat(lit("col_"), $"c") as "col",
        $"r".cast(LongType) as "__rowid",
        when($"c" < keyCols,
          // Key columns: values from a shared domain keyed by (t, c).
          concat(lit("D"), pmod($"t" * 7 + $"c", lit(nDomains)), lit("_"),
                 pmod(hash($"t", $"c", $"r", lit(seed)), lit(domainSize))))
          .otherwise(
            // Non-key columns: repository-unique values.
            concat(lit("v"), $"t", lit("_"), $"c", lit("_"), $"r")) as "value",
      )
  }
}
