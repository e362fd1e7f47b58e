package repro.core

import org.scalatest.funsuite.AnyFunSuite

class GroupSamplerSpec extends AnyFunSuite {

  private def cand(i: Int) = Candidate(i, Vector(JoinEdge("key", s"t$i", "key")), "v")

  test("sampleGroup draws at most t candidates, one per cluster") {
    val gs = new GroupSampler(4, seed = 2)
    val pools: Int => Vector[Candidate] = c => Vector(cand(c * 10), cand(c * 10 + 1))
    val g = gs.sampleGroup(2, pools)
    assert(g.size == 2)
    assert(g.map(_.id / 10).distinct.size == 2)
  }

  test("sampleGroup skips empty pools") {
    val gs = new GroupSampler(3, seed = 3)
    val pools: Int => Vector[Candidate] = c => if (c == 1) Vector(cand(1)) else Vector.empty
    val g = gs.sampleGroup(2, pools)
    assert(g.map(_.id) == Vector(1))
  }

  test("sampleGroup returns empty when all pools are empty") {
    val gs = new GroupSampler(2, seed = 4)
    assert(gs.sampleGroup(1, _ => Vector.empty).isEmpty)
  }

  test("rewarded cluster is sampled more often under Thompson sampling") {
    val gs = new GroupSampler(2, seed = 5)
    (1 to 30).foreach(_ => gs.record(0, success = true))
    (1 to 30).foreach(_ => gs.record(1, success = false))
    val pools: Int => Vector[Candidate] = c => Vector(cand(c))
    val picks = (1 to 200).map(_ => gs.sampleGroup(1, pools).head.id)
    val share0 = picks.count(_ == 0).toDouble / picks.size
    assert(share0 > 0.8, s"expected cluster 0 to dominate, got $share0")
  }

  test("sampler is deterministic in the seed") {
    def run(seed: Long): Seq[Int] = {
      val gs = new GroupSampler(3, seed)
      val pools: Int => Vector[Candidate] = c => Vector(cand(c), cand(c + 100))
      (1 to 20).flatMap(_ => gs.sampleGroup(2, pools).map(_.id))
    }
    assert(run(9) == run(9))
    assert(run(9) != run(10))
  }

  test("constructor rejects zero clusters") {
    intercept[IllegalArgumentException](new GroupSampler(0, 1))
  }
}
