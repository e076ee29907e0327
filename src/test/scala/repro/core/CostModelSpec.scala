package repro.core

import java.util.Random

import org.scalatest.funsuite.AnyFunSuite

import CostModel._

/** Cost-model tests: least-squares recovery of known coefficients, R²
  * behaviour under noise, and clause/atom cost composition.
  */
class CostModelSpec extends AnyFunSuite {

  // ---- calibration ----

  private val truth = Coeffs(k1 = 0.004, k2 = 0.0011, k3 = 0.002, k4 = 0.0035, c = 0.05)

  private def syntheticSamples(n: Int, noise: Double, seed: Long): Seq[Sample] = {
    val rnd = new Random(seed)
    (0 until n).map { _ =>
      val sel  = rnd.nextDouble()
      val lenP = 2.0 + rnd.nextInt(30)
      val lenT = 50.0 + rnd.nextInt(400)
      val t    = estimateSearch(truth, sel, lenP, lenT) * (1.0 + noise * (rnd.nextDouble() - 0.5))
      Sample(sel, lenP, lenT, t)
    }
  }

  test("calibration recovers exact coefficients from noiseless samples") {
    val co = calibrate(syntheticSamples(200, noise = 0.0, seed = 1))
    truth.toSeq.zip(co.toSeq).foreach { case (e, g) =>
      assert(math.abs(e - g) < 1e-6, s"expected $e got $g")
    }
  }

  test("calibration fits all-miss samples: found-case coefficients are 0, the rest recovered") {
    // Every pattern missed (sel = 0), so the found-case feature columns are all zero.
    val co = calibrate(syntheticSamples(200, noise = 0.0, seed = 6).map { s =>
      s.copy(sel = 0.0, measuredMicros = estimateSearch(truth, 0.0, s.lenP, s.lenT))
    })
    assert(math.abs(co.k1) < 1e-9 && math.abs(co.k2) < 1e-9, co)
    Seq(truth.k3 -> co.k3, truth.k4 -> co.k4, truth.c -> co.c).foreach { case (e, g) =>
      assert(math.abs(e - g) < 1e-6, s"expected $e got $g")
    }
  }

  test("R² is 1 for a perfect fit") {
    val s = syntheticSamples(100, 0.0, 2)
    assert(math.abs(rSquared(s, calibrate(s)) - 1.0) < 1e-9)
  }

  test("R² degrades with noise but stays high for small noise") {
    val s  = syntheticSamples(300, 0.10, 3)
    val r2 = rSquared(s, calibrate(s))
    assert(r2 > 0.9 && r2 < 1.0, s"r2=$r2")
  }

  test("R² drops substantially under heavy multiplicative noise") {
    val rnd = new Random(4)
    val s = syntheticSamples(300, 0.0, 4).map { smp =>
      // hypervisor-style throttling spikes: 20% of samples 2–4x slower
      val spike = if (rnd.nextDouble() < 0.2) 2.0 + 2 * rnd.nextDouble() else 1.0
      smp.copy(measuredMicros = smp.measuredMicros * spike)
    }
    val r2 = rSquared(s, calibrate(s))
    assert(r2 < 0.85, s"r2=$r2")
  }

  test("calibration requires at least 5 samples") {
    intercept[IllegalArgumentException](calibrate(syntheticSamples(4, 0.0, 5)))
  }

  test("R² of constant samples is defined") {
    val s = Seq.fill(6)(Sample(0.5, 5, 100, 1.0))
    // singular design; just verify rSquared handles zero variance
    assert(rSquared(s, Coeffs(0, 0, 0, 0, 1.0)) === 1.0)
    assert(rSquared(s, Coeffs(0, 0, 0, 0, 2.0)) === 0.0)
  }

  // ---- model structure ----

  test("estimateSearch interpolates the found/not-found cases by selectivity") {
    val atSel0 = estimateSearch(truth, 0.0, 10, 100)
    val atSel1 = estimateSearch(truth, 1.0, 10, 100)
    assert(math.abs(atSel0 - (truth.k3 * 10 + truth.k4 * 100 + truth.c)) < 1e-12)
    assert(math.abs(atSel1 - (truth.k1 * 10 + truth.k2 * 100 + truth.c)) < 1e-12)
    val mid = estimateSearch(truth, 0.5, 10, 100)
    assert(math.abs(mid - (atSel0 + atSel1) / 2) < 1e-12)
  }

  test("atom cost counts one search per pattern string") {
    val single = atomCost(truth, SubstringMatch("t", "abcde"), 0.3, 200)
    assert(math.abs(single - estimateSearch(truth, 0.3, 5, 200)) < 1e-12)
    val kv = atomCost(truth, KeyValueMatch("age", "10"), 0.3, 200)
    val expected = estimateSearch(truth, 0.3, "\"age\"".length.toDouble, 200) +
      estimateSearch(truth, 0.3, 2, 200)
    assert(math.abs(kv - expected) < 1e-12)
  }

  test("clause cost is the sum of atom costs (paper §V-D)") {
    val a1 = SubstringMatch("t", "xy")
    val a2 = ExactMatch("n", "Bob")
    val cl = Clause(a1, a2)
    val sels: Atom => Double = { case `a1` => 0.2; case _ => 0.4 }
    val expected = atomCost(truth, a1, 0.2, 150) + atomCost(truth, a2, 0.4, 150)
    assert(math.abs(clauseCost(truth, cl, sels, 150) - expected) < 1e-12)
  }

  test("cost increases with pattern length and object length") {
    assert(estimateSearch(truth, 0.5, 20, 100) > estimateSearch(truth, 0.5, 5, 100))
    assert(estimateSearch(truth, 0.5, 5, 400) > estimateSearch(truth, 0.5, 5, 100))
  }
}
