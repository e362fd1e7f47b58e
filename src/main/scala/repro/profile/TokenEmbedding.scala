package repro.profile

import scala.util.hashing.MurmurHash3

import repro.util.LinAlg

/** Deterministic hashed-token embeddings — the substitute for the paper's
  * BERT-based semantic profile.
  *
  * Each token maps to a fixed pseudo-random unit-ish vector derived from
  * its hash; a table's embedding is the mean of its token vectors (exactly
  * the paper's "averaging the embedding vectors of tokens present in the
  * table"). Tables sharing vocabulary therefore have high cosine
  * similarity, which is the only property the search consumes.
  */
object TokenEmbedding {

  val Dim = 32

  /** Fixed pseudo-random vector for one token. */
  def tokenVector(token: String): Array[Double] = {
    val v = new Array[Double](Dim)
    var i = 0
    while (i < Dim) {
      val h = MurmurHash3.stringHash(token.toLowerCase, i * 0x9E3779B9 + 1)
      // Map the 32-bit hash to (-1, 1) uniformly; deterministic per (token, i).
      v(i) = h.toDouble / Int.MaxValue.toDouble
      i += 1
    }
    v
  }

  /** Mean token vector; zero vector for an empty token set. */
  def embed(tokens: Iterable[String]): Array[Double] = {
    val v = new Array[Double](Dim)
    var n = 0
    tokens.foreach { t =>
      val tv = tokenVector(t)
      var i = 0
      while (i < Dim) { v(i) += tv(i); i += 1 }
      n += 1
    }
    if (n > 0) { var i = 0; while (i < Dim) { v(i) /= n; i += 1 } }
    v
  }

  /** Cosine similarity of two token multisets, rescaled from [-1,1] to
    * [0,1] so it composes with the other (unit-interval) profiles.
    */
  def similarity(a: Iterable[String], b: Iterable[String]): Double = similarity(embed(a), embed(b))

  /** [[similarity]] of two embeddings, as [[embed]] returns them. */
  def similarity(a: Array[Double], b: Array[Double]): Double = (LinAlg.cosine(a, b) + 1.0) / 2.0
}
