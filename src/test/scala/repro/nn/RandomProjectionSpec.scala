package repro.nn

import org.scalatest.funsuite.AnyFunSuite

class RandomProjectionSpec extends AnyFunSuite {

  private val rp = new RandomProjection(24, 256, seed = 5)

  test("embeddings are L2-normalized") {
    val e = rp.embed(Seq("a", "b", "c"))
    assert(math.abs(math.sqrt(e.map(v => v * v).sum) - 1.0) < 1e-9)
  }

  test("empty input embeds to the zero vector") {
    assert(rp.embed(Seq.empty).forall(_ == 0.0))
  }

  test("embedding is deterministic and seed-dependent") {
    val e1 = rp.embed(Seq("x", "y"))
    val e2 = rp.embed(Seq("x", "y"))
    assert(e1.sameElements(e2))
    val other = new RandomProjection(24, 256, seed = 6)
    assert(!other.embed(Seq("x", "y")).sameElements(e1))
  }

  test("similar bags embed closer than dissimilar bags") {
    val base = (1 to 100).map(i => s"tok$i")
    val near = base.drop(5) ++ Seq("extra1", "extra2")
    val far  = (1 to 100).map(i => s"other$i")
    val e0 = rp.embed(base); val e1 = rp.embed(near); val e2 = rp.embed(far)
    assert(RandomProjection.cosine(e0, e1) > RandomProjection.cosine(e0, e2) + 0.3)
  }

  test("cosine of an embedding with itself is 1") {
    val e = rp.embed(Seq("p", "q"))
    assert(math.abs(RandomProjection.cosine(e, e) - 1.0) < 1e-9)
  }
}
