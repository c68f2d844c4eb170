package repro.nn

import scala.util.hashing.MurmurHash3

/** Frozen, seeded embedding of a token bag: hash tokens into a
  * ``buckets``-dim count vector, then project with a fixed Gaussian matrix
  * and L2-normalize.
  *
  * This is the repro's stand-in for (a) the *frozen* pretrained encoders of
  * the TAPAS/TABBIE baselines (§6.1.1 — their weights stay fixed, only the
  * MLP on top learns) and (b) the off-the-shelf sentence embedder used for
  * column-value embeddings in search (§6.3). Random projections preserve
  * inner products in expectation but are not adapted to any task — exactly
  * the behavioural property those frozen models contribute.
  */
final class RandomProjection(val dim: Int, val buckets: Int, seed: Long) extends Serializable {
  private val proj: Array[Array[Double]] = {
    val rng = new scala.util.Random(seed)
    Array.fill(dim, buckets)(rng.nextGaussian() / math.sqrt(dim))
  }

  private def bucket(token: String): Int =
    math.floorMod(MurmurHash3.stringHash(token, 0x51ab2e17), buckets)

  /** Embed a token multiset; all-zero input embeds to the zero vector. */
  def embed(tokens: Iterable[String]): Array[Double] = {
    val counts = new Array[Double](buckets)
    tokens.foreach(t => counts(bucket(t)) += 1.0)
    project(counts)
  }

  /** Embed a counted bag directly (no token replication). */
  def embedCounts(bag: Map[String, Int]): Array[Double] = {
    val counts = new Array[Double](buckets)
    bag.foreach { case (t, c) => counts(bucket(t)) += c.toDouble }
    project(counts)
  }

  private def project(counts: Array[Double]): Array[Double] = {
    val out = new Array[Double](dim)
    var d = 0
    while (d < dim) {
      var s = 0.0
      val row = proj(d)
      var b = 0
      while (b < buckets) { s += row(b) * counts(b); b += 1 }
      out(d) = s
      d += 1
    }
    val norm = math.sqrt(out.map(v => v * v).sum)
    if (norm > 0) { var i = 0; while (i < dim) { out(i) /= norm; i += 1 } }
    out
  }
}

object RandomProjection {

  /** Dot product of two embeddings — their cosine, as embeddings are unit
    * vectors. The repo's one dot product: finetune features and every
    * search score sum the products in this order.
    */
  def cosine(a: Array[Double], b: Array[Double]): Double = dot(a, b, 0)

  /** Dot product of `a` with the `a.length` values of `b` from `bFrom`, for
    * embeddings stored row after row in one array.
    */
  def dot(a: Array[Double], b: Array[Double], bFrom: Int): Double = {
    var s = 0.0
    var i = 0
    while (i < a.length) { s += a(i) * b(bFrom + i); i += 1 }
    s
  }
}
