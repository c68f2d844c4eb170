package perfbench

import org.scalatest.funsuite.AnyFunSuite

class ChecksSpec extends AnyFunSuite {

  test("binomial probabilities sum to one") {
    for (k <- Seq(1, 16, 64); j <- Seq(0.001, 0.3, 0.999))
      assert(math.abs(Checks.binomialPmf(k, j).sum - 1.0) < 1e-9)
  }

  test("expected MinHash error is exact for one slot and shrinks as the root of the slots") {
    // One slot: the estimate is 0 or 1, so E|X - j| = 2 j (1 - j).
    assert(math.abs(Checks.binomialMad(0.3, 1) - 0.42) < 1e-12)
    val ratio = Checks.binomialMad(0.4, 32) / Checks.binomialMad(0.4, 64)
    assert(math.abs(ratio - math.sqrt(2)) < 0.02)
  }

  test("the binomial bound accepts likely estimates and rejects impossible ones") {
    assert(Checks.withinBinomial(0.5, 0.5, 64))
    assert(Checks.withinBinomial(0.0, 0.01, 64))
    assert(Checks.withinBinomial(3.0 / 64, 0.01, 64))
    assert(!Checks.withinBinomial(0.5, 0.01, 64))
    assert(!Checks.withinBinomial(0.0, 0.9, 64))
  }

  test("exact Jaccard of value sets") {
    assert(Checks.exactJaccard(Set("a", "b"), Set("b", "c")) == 1.0 / 3)
    assert(Checks.exactJaccard(Set.empty, Set("a")) == 0.0)
  }
}
