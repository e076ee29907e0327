package repro.core

import org.apache.commons.math3.linear.{Array2DRowRealMatrix, ArrayRealVector, QRDecomposition}

/** Client-side predicate evaluation cost model (paper §V-D).
  *
  * Per-object expected cost of evaluating a simple predicate p:
  * `T = sel(p)·[k1·len(p) + k2·len(t)] + (1−sel(p))·[k3·len(p) + k4·len(t)] + c`
  * where len(p) is the pattern-string length and len(t) the average JSON
  * object length. The found / not-found cases are modeled separately; the
  * constants are hardware-dependent and fitted by multivariate linear
  * regression over measured (sel, len(p), len(t), time) samples.
  *
  * The cost of a disjunctive clause is the sum of its atoms' costs; the
  * cost of an atom is the sum over its pattern strings (a key-value match
  * performs two substring searches).
  */
object CostModel {

  /** Fitted hardware constants; units are µs per character (k1..k4) and µs (c). */
  final case class Coeffs(k1: Double, k2: Double, k3: Double, k4: Double, c: Double) {
    def toSeq: Seq[Double] = Seq(k1, k2, k3, k4, c)
  }

  /** One calibration observation for a single substring search. */
  final case class Sample(sel: Double, lenP: Double, lenT: Double, measuredMicros: Double)

  /** Expected per-object cost in µs for one substring search. */
  def estimateSearch(co: Coeffs, sel: Double, lenP: Double, lenT: Double): Double =
    sel * (co.k1 * lenP + co.k2 * lenT) +
      (1.0 - sel) * (co.k3 * lenP + co.k4 * lenT) + co.c

  /** Expected per-object cost of an atom: one search per pattern string. */
  def atomCost(co: Coeffs, atom: Atom, sel: Double, avgLenT: Double): Double =
    atom.patterns.map(p => estimateSearch(co, sel, p.length.toDouble, avgLenT)).sum

  /** Expected per-object cost of a clause: sum over its atoms (paper §V-D:
    * "for a disjunction of predicates, its cost is the summation").
    * `atomSels` supplies each atom's estimated selectivity.
    */
  def clauseCost(co: Coeffs, clause: Clause, atomSels: Atom => Double, avgLenT: Double): Double =
    clause.atoms.map(a => atomCost(co, a, atomSels(a), avgLenT)).sum

  private def features(s: Sample): Array[Double] =
    Array(s.sel * s.lenP, s.sel * s.lenT, (1 - s.sel) * s.lenP, (1 - s.sel) * s.lenT, 1.0)

  /** A tiny ridge term keeps the fit well-posed when measured samples are
    * nearly collinear (e.g. every chosen pattern missed, making the
    * found-case columns all ~0).
    */
  private val Ridge = 1e-6

  /** Least squares with a ridge term, minimizing ‖Xβ−y‖² + λ‖β‖²: the
    * design matrix X stacked over √λ·I (with zero targets) is solved by
    * commons-math3's QR decomposition.
    */
  def calibrate(samples: Seq[Sample]): Coeffs = {
    require(samples.size >= 5, s"need ≥5 samples to fit 5 coefficients, got ${samples.size}")
    val ridgeRows = Array.tabulate(5, 5)((i, j) => if (i == j) math.sqrt(Ridge) else 0.0)
    val x    = new Array2DRowRealMatrix(samples.map(features).toArray ++ ridgeRows, false)
    val y    = new ArrayRealVector(samples.map(_.measuredMicros).toArray ++ new Array[Double](5), false)
    val beta = new QRDecomposition(x).getSolver.solve(y).toArray
    Coeffs(beta(0), beta(1), beta(2), beta(3), beta(4))
  }

  /** Coefficient of determination R² = 1 − SSres/SStot.
    * (The paper prints the formula with ŷ in the denominator; we use the
    * standard definition — for a well-fitted linear model with intercept
    * the two agree, and the standard one is the measure the R² name means.)
    */
  def rSquared(samples: Seq[Sample], co: Coeffs): Double = {
    val ys    = samples.map(_.measuredMicros)
    val yBar  = ys.sum / ys.size
    val ssRes = samples.map(s => math.pow(estimateSearch(co, s.sel, s.lenP, s.lenT) - s.measuredMicros, 2)).sum
    val ssTot = ys.map(y => math.pow(y - yBar, 2)).sum
    if (ssTot == 0.0) { if (ssRes == 0.0) 1.0 else 0.0 }
    else 1.0 - ssRes / ssTot
  }
}
