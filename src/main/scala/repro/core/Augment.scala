package repro.core

import java.util.concurrent.ConcurrentHashMap
import org.apache.spark.sql.SparkSession
import scala.collection.mutable

import repro.lake.{Lake, LakeTable, LocalTable, ParsedColumns}
import repro.util.NumericColumn

/** One hop of a join path (Definition 3): join the previous table's
  * `leftCol` with `rightTable.rightKeyCol`.
  */
final case class JoinEdge(leftCol: String, rightTable: String, rightKeyCol: String)

/** A candidate augmentation (Definition 4): the projection of a single
  * column `valueCol` after materialising join path `edges` onto `D_in`.
  */
final case class Candidate(id: Int, edges: Vector[JoinEdge], valueCol: String) {
  require(edges.nonEmpty, "a candidate needs at least one join hop")

  /** Table the augmented column comes from (last hop of the path). */
  def table: String = edges.last.rightTable

  def hops: Int = edges.length

  /** Unique name of the augmented column in Γ(D_in, ·). */
  def name: String = s"aug_${id}__${table}__$valueCol"

  def describe: String =
    edges.map(e => s"${e.leftCol}→${e.rightTable}.${e.rightKeyCol}").mkString(" ⋈ ") + s" [$valueCol]"
}

/** Materialises augmentations Γ(D_in, P) on the driver, where the lake
  * lives and where the search reads them.
  *
  * A candidate's column is the left join `D_in ⋈ T_1 ⋈ ... ⋈ T_h` reduced
  * to the smallest non-null value (`String.compareTo`) each input row
  * reaches over all paths: null keys never match, and duplicate join keys
  * do not multiply rows of `D_in`. This `min` is what the DuckDB oracle
  * computes. Each hop is one hash map, built from the last hop back, so
  * fan-out through duplicated bridge keys never multiplies the work.
  *
  * Materialised columns are memoised: Γ(D_in, T ∪ {P}) shares P's column
  * with every other selection containing P, so a 1000-query search loop
  * joins each candidate once. [[column]] may be called from many threads
  * at once (the profiler does): each candidate's column is computed once,
  * and every caller gets that same array. Next to each column the engine
  * keeps its numeric view, parsed the first time a task reads it; the
  * input's columns are parsed once per engine in the same way. The tables
  * [[localTable]] hands to tasks carry these views, so a query parses no
  * cell another query of the same engine has parsed. Numeric views,
  * [[numeric]] and [[localTable]] are for one thread at a time.
  *
  * @param spark unused, as Γ needs no Spark; kept in the constructor that
  *              `Runner` and the `metambench` harness call
  */
final class AugmentEngine(spark: SparkSession, val input: LakeTable, val lake: Lake) {

  private val memo = new ConcurrentHashMap[Int, Array[Option[String]]]
  private val parsed = new ParsedColumns

  /** Number of candidate columns materialised so far (for efficiency tests). */
  def materializations: Int = memo.size

  /** Materialised column of `c`, aligned to `input` row order; memoised.
    * Safe to call concurrently: a column is computed once, and every call
    * for `c` returns the same array.
    */
  def column(c: Candidate): Array[Option[String]] = memo.computeIfAbsent(c.id, _ => {
    // Walking back, `reach` maps a join key of the hop just processed to
    // the smallest value reachable from it; before the last hop, a value
    // reaches itself.
    var reach: String => Option[String] = Some(_)
    c.edges.indices.reverse.foreach { i =>
      val e = c.edges(i)
      val right = lake.table(e.rightTable)
      val keys = right.column(e.rightKeyCol)
      val next = right.column(if (i == c.hops - 1) c.valueCol else c.edges(i + 1).leftCol)
      val minOf = mutable.HashMap.empty[String, String]
      keys.indices.foreach { r =>
        for (k <- keys(r); n <- next(r); v <- reach(n)) minOf.get(k) match {
          case Some(m) if m.compareTo(v) <= 0 => ()
          case _ => minOf(k) = v
        }
      }
      reach = minOf.get
    }
    input.column(c.edges.head.leftCol).map(_.flatMap(reach))
  })

  /** Numeric view of `c`'s materialised column; parsed once, on first read. */
  def numeric(c: Candidate): NumericColumn = parsed(column(c))

  /** Materialise every candidate's column ahead of the search. */
  def prefetch(cands: Seq[Candidate]): Unit = cands.foreach(column)

  /** Γ(D_in, sel) as a driver-side table: base columns plus one column per
    * selected candidate, aligned on the input's row order.
    */
  def localTable(sel: Seq[Candidate]): LocalTable =
    LocalTable(input.columns ++ sel.toVector.map(c => c.name -> column(c)), parsed)
}
