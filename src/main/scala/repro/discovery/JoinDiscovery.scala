package repro.discovery

import org.apache.spark.sql.SparkSession
import scala.annotation.unused
import scala.collection.mutable
import scala.collection.parallel.CollectionConverters._

import repro.core.{Candidate, JoinEdge}
import repro.lake.{Lake, LakeTable}

/** Aurum-lite: join-path discovery by containment.
  *
  * The paper delegates candidate generation to Aurum; we rebuild the part
  * METAM consumes — "which (column, column) pairs join, and through which
  * paths" — scoring every column pair by containment `|V_l ∩ V_r| / |V_l|`.
  * Only the left-side columns' values are indexed; every right column's
  * cells are probed against that index once. Discovery runs on the
  * driver, where the lake lives: a Spark self-join on value would ship
  * every key cell out only to collect the pairs back. Approximate indexes
  * admit false positives, so a low `minContainment` deliberately lets
  * spurious (erroneous) join paths through, matching the ~60% erroneous
  * candidates the paper reports.
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
    * The left columns' distinct values are indexed (value → the left
    * columns holding it). Each right column — every column, left ones
    * included — then probes the index with its cells, counting a value once
    * however often it repeats; the right columns are probed one table per
    * task on the parallel collections' default pool, and the sort makes the
    * result independent of their schedule.
    *
    * @param columns    (table, column) → the column's non-null cells,
    *                   repeats allowed; each (table, column) at most once
    * @param leftTables when given, only these tables' columns are left sides
    */
  def joinablePairs(columns: Iterable[((String, String), Iterable[String])], minContainment: Double,
                    leftTables: Option[Set[String]] = None): Vector[JoinablePair] = {
    val cols = columns.toVector
    val lefts = cols.filter { case ((t, _), _) => leftTables.forall(_.contains(t)) }
    // Value ids, and per id the left columns holding the value, in order;
    // a column's repeats find it last in the holders and are skipped.
    val valueId = mutable.HashMap.empty[String, Int]
    val holding = mutable.ArrayBuffer.empty[mutable.ArrayBuffer[Int]]
    val distinct = new Array[Int](lefts.length)
    lefts.indices.foreach { l =>
      lefts(l)._2.foreach { v =>
        val hs = holding(valueId.getOrElseUpdate(v, { holding += mutable.ArrayBuffer.empty; holding.length - 1 }))
        if (hs.isEmpty || hs.last != l) { hs += l; distinct(l) += 1 }
      }
    }
    val holders = holding.map(_.toArray).toArray

    cols.groupBy(_._1._1).values.toVector.par.flatMap { rights =>
      // overlap(l) counts the current right column's values that left
      // column l holds; only the columns it touched are read and reset.
      val overlap = new Array[Long](lefts.length)
      val touched = mutable.ArrayBuffer.empty[Int]
      val seen = new java.util.BitSet(holders.length)
      rights.flatMap { case ((rt, rc), cells) =>
        cells.foreach { v =>
          val id = valueId.getOrElse(v, -1)
          if (id >= 0 && !seen.get(id)) {
            seen.set(id)
            holders(id).foreach { l => if (overlap(l) == 0) touched += l; overlap(l) += 1 }
          }
        }
        val found = touched.toVector.flatMap { l =>
          val (lt, lc) = lefts(l)._1
          val o = overlap(l)
          overlap(l) = 0
          val containment = o.toDouble / distinct(l)
          if (lt != rt && containment >= minContainment) Some(JoinablePair(lt, lc, rt, rc, o, containment)) else None
        }
        touched.clear()
        seen.clear()
        found
      }
    }.seq.sortBy(p => (p.leftTable, p.leftCol, p.rightTable, p.rightCol))
  }

  /** Candidate augmentations for `input`: every non-key column reachable
    * over a join path of at most `maxHops` hops starting from one of
    * `input`'s key columns. At depth 1 only `input`'s key values are
    * indexed, and every lake key column's cells probe them
    * ([[joinablePairs]] anchored at `input`); no distinct-value set of a
    * lake column is built. Depth 2 runs [[joinablePairs]] over all pairs and
    * chains a pair discovered among lake tables onto a hop-1 path (paper
    * Definition 3 chains of joins). Candidate ids are assigned in a
    * deterministic order, whatever the schedule of the probe.
    *
    * @param spark unused, as discovery needs no Spark; kept in the signature
    *              that `Runner` and the `metambench` harness call
    */
  def candidatesFor(
      @unused spark: SparkSession,
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
