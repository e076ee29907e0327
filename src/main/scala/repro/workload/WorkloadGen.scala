package repro.workload

import java.util.{ArrayList, Collections, Random}

import scala.jdk.CollectionConverters._

import repro.core.{CiaoQuery, Clause}

/** Synthetic query workloads (paper §VII-C, Table III).
  *
  * Every query instantiates the single template
  * `SELECT COUNT(*) FROM <dataset> WHERE <conjunctive predicates>`.
  * Each pool predicate i is included in a query independently with
  * probability `p_i = E[#preds] · w_i / Σw`, where the weights w are
  * uniform or Zipfian; a skewed distribution concentrates inclusion mass
  * on few predicates (high predicate overlap across queries).
  */
object WorkloadGen {

  /** Predicate-inclusion distribution for a workload. */
  sealed trait PredDist { def label: String }

  /** Zipfian with the paper's parameterization: following the paper's note
    * on its generator ("the smaller skewness parameter means higher
    * skewness"), `param`=1.5 is *more* skewed than `param`=2. We map the
    * parameter to the rank exponent a = 1/(param−1), so weights are
    * w_i = i^(−1/(param−1)): param 1.5 ⇒ i⁻², param 2 ⇒ i⁻¹.
    */
  final case class Zipfian(param: Double) extends PredDist {
    require(param > 1.0, "Zipfian parameter must be > 1")
    def exponent: Double = 1.0 / (param - 1.0)
    def label: String    = s"Zipfian($param)"
  }

  case object Uniform extends PredDist { def label: String = "Uniform" }

  /** Summary statistics matching the Table III columns. */
  final case class WorkloadStats(
      nQueries: Int,
      sumPredicates: Int,
      minPredicates: Int,
      maxPredicates: Int,
      skewnessFactor: Double,
      distribution: String,
  )

  /** Generate `nQueries` conjunctive queries over `pool`. Queries are
    * guaranteed non-empty (a query drawing zero predicates redraws one by
    * weight), matching the Table III minimum of 1.
    */
  def generate(pool: Vector[Clause],
               nQueries: Int,
               expectedPreds: Double,
               dist: PredDist,
               seed: Long): Vector[CiaoQuery] = {
    require(pool.nonEmpty, "empty predicate pool")
    val rnd = new Random(seed)
    // Shuffle deterministically so Zipf rank is not tied to pool order.
    val order = {
      val xs = new ArrayList[Int](pool.indices.asJava)
      Collections.shuffle(xs, new Random(seed ^ 0x5eed))
      xs.asScala.toVector
    }
    val weights = dist match {
      case z: Zipfian => order.indices.map(r => 1.0 / math.pow(r + 1, z.exponent))
      case Uniform    => order.indices.map(_ => 1.0)
    }
    val probs = capProbs(weights.toVector, expectedPreds)
    val cdf   = { val s = weights.scanLeft(0.0)(_ + _).tail; s.map(_ / s.last) }

    Vector.fill(nQueries) {
      val picked = order.indices.filter(i => rnd.nextDouble() < probs(i))
      val idxs =
        if (picked.nonEmpty) picked
        else {
          val r = rnd.nextDouble()
          val i = cdf.indexWhere(r <= _)
          Vector(if (i < 0) cdf.size - 1 else i)
        }
      CiaoQuery(idxs.map(i => pool(order(i))).toVector)
    }
  }

  /** Inclusion probabilities p_i ∝ w_i with Σp = `target`, water-filled so
    * that capping at 1 does not lose mass: heads saturated at 1 redistribute
    * their excess to the tail (keeps E[#preds per query] = `target` even for
    * very skewed weights).
    */
  private[workload] def capProbs(weights: Vector[Double], target: Double): Vector[Double] = {
    val p = Array.fill(weights.size)(0.0)
    var uncapped = weights.indices.toSet
    var remaining = math.min(target, weights.size.toDouble)
    var changed = true
    while (changed && uncapped.nonEmpty && remaining > 1e-12) {
      changed = false
      val wSum = uncapped.iterator.map(weights).sum
      val scale = remaining / wSum
      val newlyCapped = uncapped.filter(i => weights(i) * scale >= 1.0)
      if (newlyCapped.nonEmpty) {
        newlyCapped.foreach { i => p(i) = 1.0 }
        uncapped = uncapped -- newlyCapped
        remaining -= newlyCapped.size
        changed = true
      } else {
        uncapped.foreach(i => p(i) = weights(i) * scale)
        remaining = 0.0
      }
    }
    p.toVector
  }

  /** Predicate skewness factor (paper §VII-E.3):
    * `Σ(X_i − X̄)³ / ((N−1)·σ³)` with X_i = number of queries containing
    * predicate i, over the N distinct predicates of the workload, and
    * σ the population standard deviation. Zero when σ = 0 (all equal).
    */
  def skewnessFactor(queries: Seq[CiaoQuery]): Double = {
    val counts = queries.flatMap(_.clauses.map(_.canonical)).groupBy(identity).view.mapValues(_.size).toMap
    val xs     = counts.values.map(_.toDouble).toVector
    val n      = xs.size
    if (n <= 1) return 0.0
    val mean  = xs.sum / n
    val sigma = math.sqrt(xs.map(x => (x - mean) * (x - mean)).sum / n)
    if (sigma == 0.0) 0.0
    else xs.map(x => math.pow(x - mean, 3)).sum / ((n - 1) * math.pow(sigma, 3))
  }

  /** Table III-style summary of a generated workload. */
  def stats(queries: Seq[CiaoQuery], dist: PredDist): WorkloadStats = {
    val sizes = queries.map(_.clauses.size)
    WorkloadStats(
      nQueries       = queries.size,
      sumPredicates  = sizes.sum,
      minPredicates  = sizes.min,
      maxPredicates  = sizes.max,
      skewnessFactor = skewnessFactor(queries),
      distribution   = dist.label,
    )
  }

  /** The paper's three end-to-end workloads (Table III): A = Zipfian(1.5)
    * (most skewed), B = Zipfian(2), C = Uniform. 200 queries, E[#preds]=3.
    */
  def tableIII(pool: Vector[Clause], nQueries: Int = 200, seed: Long = 7L)
      : Map[String, (Vector[CiaoQuery], PredDist)] = Map(
    "A" -> (generate(pool, nQueries, 3.0, Zipfian(1.5), seed)     -> Zipfian(1.5)),
    "B" -> (generate(pool, nQueries, 3.0, Zipfian(2.0), seed + 1) -> Zipfian(2.0)),
    "C" -> (generate(pool, nQueries, 3.0, Uniform, seed + 2)      -> Uniform),
  ).map { case (k, (q, d)) => k -> (q, d) }
}
