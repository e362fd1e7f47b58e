package repro.discovery

import org.apache.spark.sql.SparkSession
import scala.collection.mutable

import repro.core.{Candidate, JoinEdge}
import repro.lake.{Lake, LakeTable}

/** Aurum-lite: join-path discovery over an inverted index.
  *
  * The paper delegates candidate generation to Aurum; we rebuild the part
  * METAM consumes — "which (column, column) pairs join, and through which
  * paths" — as one inverted index from each key value to the columns that
  * hold it, scoring every column pair by containment `|V_l ∩ V_r| / |V_l|`.
  * The index is built on the driver, where the lake lives: a Spark
  * self-join on value would ship every key cell out only to collect the
  * pairs back. Approximate indexes admit false positives, so a low
  * `minContainment` deliberately lets spurious (erroneous) join paths
  * through, matching the ~60% erroneous candidates the paper reports.
  */
object JoinDiscovery {

  /** A discovered joinable column pair with its containment score. */
  final case class JoinablePair(
      leftTable: String,
      leftCol: String,
      rightTable: String,
      rightCol: String,
      overlap: Long,
      containment: Double,
  )

  /** All ordered pairs of columns of different tables whose distinct-value
    * overlap covers at least `minContainment` of the left column's distinct
    * values, sorted by (leftTable, leftCol, rightTable, rightCol).
    *
    * @param columns    (table, column) → the column's distinct non-null values
    * @param leftTables when given, only these tables' columns are left sides
    */
  def joinablePairs(columns: Map[(String, String), Set[String]], minContainment: Double,
                    leftTables: Option[Set[String]] = None): Vector[JoinablePair] = {
    val cols = columns.toVector
    val holders = mutable.HashMap.empty[String, mutable.ArrayBuffer[Int]]
    cols.indices.foreach(i => cols(i)._2.foreach(v => holders.getOrElseUpdate(v, mutable.ArrayBuffer.empty) += i))
    // overlap(r) counts the current left column's values that column r
    // holds; only the columns it touched are read and reset.
    val overlap = new Array[Long](cols.length)
    val touched = mutable.ArrayBuffer.empty[Int]
    val pairs = Vector.newBuilder[JoinablePair]
    for (((lt, lc), lvals) <- cols if leftTables.forall(_.contains(lt))) {
      lvals.foreach(v => holders(v).foreach { r => if (overlap(r) == 0) touched += r; overlap(r) += 1 })
      touched.foreach { r =>
        val (rt, rc) = cols(r)._1
        val containment = overlap(r).toDouble / lvals.size
        if (rt != lt && containment >= minContainment) pairs += JoinablePair(lt, lc, rt, rc, overlap(r), containment)
        overlap(r) = 0
      }
      touched.clear()
    }
    pairs.result().sortBy(p => (p.leftTable, p.leftCol, p.rightTable, p.rightCol))
  }

  /** Candidate augmentations for `input`: every non-key column reachable
    * over a join path of at most `maxHops` hops starting from one of
    * `input`'s key columns. Hop 1 uses the inverted index; hop 2 chains a
    * pair discovered among lake tables onto a hop-1 path (paper
    * Definition 3 chains of joins). Candidate ids are assigned in a
    * deterministic order.
    *
    * @param spark unused, as discovery needs no Spark; kept in the signature
    *              that `Runner` and the `metambench` harness call
    */
  def candidatesFor(
      spark: SparkSession,
      input: LakeTable,
      lake: Lake,
      minContainment: Double,
      maxHops: Int = 1,
  ): Vector[Candidate] = {
    require(maxHops >= 1 && maxHops <= 2, "supported join-path depth is 1 or 2")
    // Depth-1 discovery only needs pairs anchored at the input table.
    val leftFilter = if (maxHops == 1) Some(Set(input.meta.name)) else None
    val pairs = joinablePairs(Lake(input +: lake.tables).keyColumns, minContainment, leftFilter)

    val hop1: Vector[Vector[JoinEdge]] = pairs
      .filter(p => p.leftTable == input.meta.name)
      .map(p => Vector(JoinEdge(p.leftCol, p.rightTable, p.rightCol)))

    val hop2: Vector[Vector[JoinEdge]] =
      if (maxHops < 2) Vector.empty
      else for {
        path <- hop1
        bridge = path.last.rightTable
        p <- pairs
        if p.leftTable == bridge && p.rightTable != input.meta.name && p.rightTable != bridge
      } yield path :+ JoinEdge(p.leftCol, p.rightTable, p.rightCol)

    val paths = (hop1 ++ hop2.distinct).distinct
    val cands = for {
      edges <- paths
      t = lake.table(edges.last.rightTable)
      vc <- t.columnNames if !t.meta.keyCols.contains(vc)
    } yield (edges, vc)

    cands.zipWithIndex.map { case ((edges, vc), i) => Candidate(i, edges, vc) }
  }
}
