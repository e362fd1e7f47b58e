package repro.metambench

import com.fasterxml.jackson.databind.ObjectMapper
import java.io.File
import scala.collection.mutable
import scala.jdk.CollectionConverters._
import scala.util.Random

import repro.core.{Candidate, SearchResult}
import repro.lake.{LakeTable, Scenario}
import repro.profile.{Profiler, Profiles}
import repro.util.Stats

/** Correctness checks against independent driver-side references. A check
  * that fails is counted (and described on stderr) instead of aborting the
  * run, so the benchmark reports how many of its checks and operations
  * failed out of how many it attempted.
  */
final class Checks {
  var attempted = 0L
  var failed = 0L

  def check(ok: Boolean, what: => String): Unit = {
    attempted += 1
    if (!ok) { failed += 1; Console.err.println(s"[metambench] CHECK FAILED: $what") }
  }

  /** Run an operation, counting an exception as one failed operation. */
  def operation[A](what: String)(body: => A): Option[A] = {
    attempted += 1
    try Some(body)
    catch {
      case e: Exception =>
        failed += 1
        Console.err.println(s"[metambench] OPERATION FAILED: $what: $e")
        None
    }
  }

  /** 1-hop candidates equal the pairs whose containment, recomputed from
    * the `LakeTable` arrays, reaches `minContainment` — one item per
    * expected or produced (left column, table, key column, value column).
    */
  def candidates(s: Scenario, cands: Vector[Candidate], minContainment: Double): Unit = {
    val expected = for {
      lc <- s.input.meta.keyCols
      left = s.input.column(lc).flatten.toSet
      t <- s.lake.tables
      kc <- t.meta.keyCols
      if left.nonEmpty && left.intersect(t.column(kc).flatten.toSet).size.toDouble / left.size >= minContainment
      vc <- t.columnNames if !t.meta.keyCols.contains(vc)
    } yield (lc, t.meta.name, kc, vc)
    val produced = cands.map(c => (c.edges.head.leftCol, c.table, c.edges.head.rightKeyCol, c.valueCol))
    check(cands.forall(_.hops == 1), s"${s.spec.name}: multi-hop candidate at depth 1")
    check(cands.map(_.id).distinct.size == cands.size, s"${s.spec.name}: duplicate candidate ids")
    val exp = expected.toSet
    val got = produced.toSet
    (exp ++ got).foreach(k => check(exp(k) && got(k), s"${s.spec.name}: candidate $k expected=${exp(k)} produced=${got(k)}"))
  }

  /** Γ columns of a seeded sample of the candidates the task was handed,
    * against a driver left join with `min` dedup, and the sample's `corr`
    * and `overlap` profiles against `Stats` on the profiler's 100-row sample.
    */
  def augmentAndProfiles(s: Scenario, cands: Vector[Candidate], profiles: Profiles,
                         seen: collection.Map[Int, Array[Option[String]]], seed: Long, n: Int = 20): Unit = {
    val byId = cands.map(c => c.id -> c).toMap
    check(seen.keys.forall(byId.contains), s"${s.spec.name}: task saw a column of an unknown candidate")
    val sample = new Random(seed).shuffle(seen.keys.toVector.sorted.filter(byId.contains)).take(n)
    val idx = Profiler.sampleIndices(s.input.nRows, 100, 17)
    val target = s.input.numeric(s.profileTargetCol)
    val corrAt = profiles.profileIndex("corr")
    val overlapAt = profiles.profileIndex("overlap")
    sample.foreach { id =>
      val c = byId(id)
      val ref = Checks.leftJoinMin(s.input, s.lake.table(c.table), c)
      check(ref.sameElements(seen(id)), s"${s.spec.name}: Γ column of ${c.name} differs from the driver left join")
      val xs = idx.map(i => ref(i).flatMap(_.toDoubleOption))
      val corr = math.abs(Stats.pearson(xs, idx.map(target)))
      val overlap = idx.count(i => ref(i).isDefined).toDouble / idx.length
      val p = profiles.of(c)
      check(math.abs(p(corrAt) - Stats.clamp01(corr)) <= 1e-6, s"${s.spec.name}: corr of ${c.name} ${p(corrAt)} vs $corr")
      check(math.abs(p(overlapAt) - overlap) <= 1e-9, s"${s.spec.name}: overlap of ${c.name} ${p(overlapAt)} vs $overlap")
    }
  }

  /** The invariants every search result must satisfy. `taskCalls` is the
    * number of task calls the method made, which must equal its queries.
    */
  def searchResult(where: String, r: SearchResult, cands: Vector[Candidate], budget: Int, taskCalls: Int): Unit = {
    val ids = cands.map(_.id).toSet
    val us = r.curve.map(_._2)
    check(r.queriesUsed <= budget, s"$where: ${r.queriesUsed} queries over budget $budget")
    check(taskCalls == r.queriesUsed, s"$where: $taskCalls task calls for ${r.queriesUsed} queries")
    check((r.utility +: us).forall(u => u >= 0.0 && u <= 1.0), s"$where: utility outside [0,1]")
    check(r.curve.zip(r.curve.drop(1)).forall { case (a, b) => b._1 > a._1 && b._2 >= a._2 },
      s"$where: curve not non-decreasing")
    check(r.solution.forall(c => ids.contains(c.id)), s"$where: solution holds a non-candidate")
    check(r.utility <= us.foldLeft(0.0)(math.max) + 1e-12, s"$where: returned utility ${r.utility} above the curve max")
  }

  /** Search quality is not worse than `record` holds for this workload and
    * seed: one check per recorded metric. Higher utilities and fewer
    * queries are better. A better value is reported on stderr, not counted
    * as a failure, so a change that improves the search passes. A seed
    * with no record is not checked.
    */
  def quality(workload: String, seed: Long, measured: Metrics.Table, record: File): Unit =
    operation(s"read $record")(Checks.recordedQuality(record, workload, seed)).flatten.foreach { rec =>
      val got = measured.map { case (n, (v, _)) => n -> v }.toMap
      rec.foreach { case (name, want) =>
        got.get(name) match {
          case None => check(ok = false, s"$workload seed $seed: no measured $name")
          case Some(v) =>
            val better = if (Checks.LowerIsBetter(name)) want - v else v - want
            check(better >= -1e-9, s"$workload seed $seed: $name $v is worse than the recorded $want")
            if (better > 1e-9) Console.err.println(s"[metambench] QUALITY: $workload seed $seed: $name $v, recorded $want")
        }
      }
    }
}

object Checks {

  val LowerIsBetter: Set[String] = Set("metam.queries_to_theta")

  /** The quality metrics recorded for a workload and seed under
    * `quality.<workload>.<seed>` in a baseline file, if any.
    */
  def recordedQuality(record: File, workload: String, seed: Long): Option[Map[String, Double]] = {
    val node = new ObjectMapper().readTree(record).path("quality").path(workload).path(seed.toString)
    if (node.isMissingNode) None
    else Some(node.properties().asScala.map(e => e.getKey -> e.getValue.asDouble).toMap)
  }

  /** Driver reference of a 1-hop Γ column: each input row's join key looked
    * up in the right table, keeping the smallest matching value.
    */
  def leftJoinMin(input: LakeTable, right: LakeTable, c: Candidate): Array[Option[String]] = {
    require(c.hops == 1, "reference covers 1-hop candidates")
    val e = c.edges.head
    val keys = right.column(e.rightKeyCol)
    val vals = right.column(c.valueCol)
    val minOf = mutable.HashMap.empty[String, String]
    keys.indices.foreach { i =>
      for (k <- keys(i); v <- vals(i)) minOf.get(k) match {
        case Some(m) if m.compareTo(v) <= 0 => ()
        case _ => minOf(k) = v
      }
    }
    input.column(e.leftCol).map(_.flatMap(minOf.get))
  }

  /** Driver reference of `JoinDiscovery.joinablePairsDf(...).count()`: the
    * ordered column pairs of different tables whose overlap of distinct
    * values covers at least `minContainment` of the left column's, from an
    * inverted map of value to the columns holding it.
    */
  def joinablePairCount(cells: Seq[(String, String, String)], minContainment: Double): Long = {
    val distinct = cells.distinct
    val columns = distinct.map(c => (c._1, c._2)).distinct.zipWithIndex.toMap
    val table = columns.toVector.sortBy(_._2).map(_._1._1)
    val size = new Array[Int](columns.size)
    val holders = mutable.HashMap.empty[String, mutable.ArrayBuffer[Int]]
    distinct.foreach { case (t, c, v) =>
      val i = columns((t, c))
      size(i) += 1
      holders.getOrElseUpdate(v, mutable.ArrayBuffer.empty) += i
    }
    val n = columns.size.toLong
    val overlap = mutable.LongMap.empty[Int]
    holders.valuesIterator.foreach { cs =>
      for (l <- cs; r <- cs if table(l) != table(r)) overlap(l * n + r) = overlap.getOrElse(l * n + r, 0) + 1
    }
    overlap.count { case (k, o) => o.toDouble / size((k / n).toInt) >= minContainment }.toLong
  }
}
