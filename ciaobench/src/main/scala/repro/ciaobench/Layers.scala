package repro.ciaobench

import repro.core._
import repro.harness.Harness
import repro.json.JsonParser
import repro.server._

/** Per-layer metrics of the traced run.
  *
  * Round metrics are the best of the traced rounds. The load and scan
  * stages are replayed once, after the rounds, through each stage's public
  * function on the last round's chunks, bits and store, so their times can
  * be set beside the whole `PartialLoader` call and the query times.
  */
object Layers {
  import Main.{median, Metric}

  final case class Inputs(
      p: Main.Prepared,
      preps: Vector[Main.Prepared],
      storeDir: String,
      replayDir: String,
      tracer: Tracer,
      traced: Main.Best,
      clauseTruth: Map[Int, java.util.BitSet],
      filesWritten: Long,
      storeBytes: Long,
      overheadMs: Double,
  )

  /** A JSON number; a ratio with a zero base reads 0. */
  def num(v: Double): String = if (v.isNaN || v.isInfinite) "0.0" else v.toString

  private def ratio(a: Double, b: Double): Double = if (b == 0.0) 0.0 else a / b

  def metrics(in: Inputs): Vector[Metric] = {
    val p      = in.p
    val tr     = in.tracer
    val rows   = p.bundle.dataset.lines.size
    val schema = p.bundle.dataset.schema
    val last   = in.traced.rounds.last
    val sels   = p.selected

    // ---- core: calibration replay and drift over the set-ups' fresh fits
    val t = tr.newTrace()
    tr.span("core.calibrate")(Harness.calibrate(p.bundle.dataset.lines.take(Main.SampleSize), p.bundle.pool))
    val calibrateMs = tr.totalMs(t, "core.calibrate")
    val drift = in.preps.map { fresh =>
      val b = p.bundle.copy(coeffs = fresh.freshCoeffs)
      val q = p.workloadQueries
      Main.pushedDigest(PredicateSelection.selectBest(Harness.candidates(b, q), q, p.budget))
    }.distinct.size
    val modeled = sels.map(_.cost).sum

    // ---- client: prefilter time and bit quality against typed truth
    val prefilterMs = in.traced.prefilterMs
    val usPerRecord = prefilterMs * 1e3 / rows
    var bitsSet, falsePos, falseNeg = 0L
    p.registry.entries.foreach { e =>
      val truth = in.clauseTruth(e.id)
      last.bits.indices.foreach { ci =>
        val bv   = last.bits(ci)(e.id)
        val base = ci * Main.ChunkSize
        var i    = 0
        while (i < bv.nBits) {
          val bit = bv.get(i); val tru = truth.get(base + i)
          if (bit) bitsSet += 1
          if (bit && !tru) falsePos += 1
          if (!bit && tru) falseNeg += 1
          i += 1
        }
      }
    }

    // ---- server + json: replay the load stages on the last round's input
    val lt = tr.newTrace()
    val plan = last.chunks.indices.map { i =>
      val lines = last.chunks(i)
      val bits  = last.bits(i)
      val pos =
        if (p.covered && bits.nonEmpty) BitVec.unionAll(lines.size, bits.values.toSeq).setBits
        else lines.indices
      (lines, bits, pos)
    }
    val parsed = tr.span("json.parse")(plan.map { case (lines, _, pos) => pos.map(i => JsonParser.parseObject(lines(i))) })
    val extracted = tr.span("server.extract")(parsed.map(_.map(TableSchema.extractRow(schema, _))))
    ChunkStore.init(in.replayDir)
    tr.span("server.parquet_write")(extracted.zipWithIndex.foreach { case (rs, i) =>
      if (rs.nonEmpty) ParquetIO.writeChunk(ChunkStore.parquetPath(in.replayDir, i), schema, rs)
    })
    val sidecars = plan.map { case (lines, bits, pos) =>
      val kept = if (p.covered) bits.map { case (id, bv) => id -> bv.compact(pos) } else bits
      val loaded = pos.toSet
      (if (pos.nonEmpty) kept else Map.empty[Int, BitVec], lines.indices.filterNot(loaded).map(lines))
    }
    tr.span("server.sidecar_write")(sidecars.zipWithIndex.foreach { case ((bits, raw), i) =>
      if (bits.nonEmpty) ChunkStore.writeBits(ChunkStore.bitsPath(in.replayDir, i), bits)
      if (raw.nonEmpty) ChunkStore.writeRawLines(ChunkStore.rawPath(in.replayDir, i), raw)
    })
    val loadedLines = plan.map(_._3.size).sum

    // ---- server + json + datasource: replay the scan-side reads on the store
    val (chunks, storeSchema, registry) = tr.span("server.list")(
      (ChunkStore.listChunks(in.storeDir), ChunkStore.readSchema(in.storeDir), ChunkStore.readRegistry(in.storeDir)))
    val sidecar = tr.span("server.sidecar_read")(
      chunks.flatMap(c => c.bits.map(b => c.id -> ChunkStore.readBits(b))).toMap)
    val parquetRows = tr.span("server.parquet_read")(
      chunks.flatMap(c => c.parquet.map(f => c.id -> ParquetIO.readChunk(f, storeSchema).size.toLong)).toMap)
    val rawLines = chunks.flatMap(c => c.raw.map(ChunkStore.readRawLines)).flatten
    tr.span("json.raw_parse_once")(rawLines.foreach(JsonParser.parseObject))
    val matched = p.execQueries.map(q => DataSkipping.matchQuery(q, registry))
    val kept = tr.span("server.skip")(matched.map { ids =>
      if (ids.isEmpty) None
      else Some(parquetRows.iterator.map { case (id, n) =>
        sidecar.get(id).fold(n) { sc =>
          val nBits = sc.headOption.map(_._2.nBits).getOrElse(0)
          DataSkipping.combinedBits(sc, ids, nBits).cardinality.toLong
        }
      }.sum)
    })
    val loadedRows = parquetRows.values.sum
    val rawRows    = rawLines.size.toLong
    val unmatched  = matched.count(_.isEmpty)
    val decoded    = matched.map(ids => if (ids.isEmpty) loadedRows + rawRows else loadedRows)
    val afterBits  = decoded.zip(kept).map { case (d, k) => k.getOrElse(d) }
    val results    = last.counts.filter(_ >= 0).sum

    def best(f: Main.Round => Double) = in.traced.rounds.map(f).min
    Vector(
      Metric("core.calibrate_ms", calibrateMs, "ms"),
      Metric("core.select_ms", median(in.preps.map(_.selectMs)), "ms"),
      Metric("core.n_selected", sels.size.toDouble, "count"),
      Metric("core.modeled_client_us_per_record", modeled, "us/record"),
      Metric("core.selection_drift", drift.toDouble, "count"),
      Metric("client.prefilter_ms", prefilterMs, "ms"),
      Metric("client.us_per_record", usPerRecord, "us/record"),
      Metric("client.budget_ratio", ratio(usPerRecord, p.budget), "ratio"),
      Metric("client.model_error_ratio", ratio(usPerRecord, modeled), "ratio"),
      Metric("client.bits_set_frac", ratio(bitsSet.toDouble, sels.size.toDouble * rows), "ratio"),
      Metric("client.false_positive_frac", ratio(falsePos.toDouble, bitsSet.toDouble), "ratio"),
      Metric("client.false_negatives", falseNeg.toDouble, "count"),
      Metric("json.parse_ms", tr.totalMs(lt, "json.parse"), "ms"),
      Metric("json.parse_us_per_record", ratio(tr.totalMs(lt, "json.parse") * 1e3, loadedLines.toDouble), "us/record"),
      Metric("json.raw_parse_ms", if (rawLines.isEmpty) 0.0 else tr.totalMs(lt, "json.raw_parse_once") * unmatched, "ms"),
      Metric("server.load_ms", in.traced.loadMs, "ms"),
      Metric("server.extract_ms", tr.totalMs(lt, "server.extract"), "ms"),
      Metric("server.parquet_write_ms", tr.totalMs(lt, "server.parquet_write"), "ms"),
      Metric("server.sidecar_write_ms", tr.totalMs(lt, "server.sidecar_write"), "ms"),
      Metric("server.files_written", in.filesWritten.toDouble, "count"),
      Metric("server.store_bytes", in.storeBytes.toDouble, "bytes"),
      Metric("server.loaded_ratio", last.load.loadedRatio, "ratio"),
      Metric("server.list_ms", tr.totalMs(lt, "server.list"), "ms"),
      Metric("server.sidecar_read_ms", tr.totalMs(lt, "server.sidecar_read"), "ms"),
      Metric("server.skip_ms", tr.totalMs(lt, "server.skip"), "ms"),
      Metric("server.parquet_read_ms", tr.totalMs(lt, "server.parquet_read"), "ms"),
      Metric("datasource.plan_ms", best(_.planMs), "ms"),
      Metric("datasource.exec_ms", best(_.execMs), "ms"),
      Metric("datasource.partitions", last.partitions.toDouble, "count"),
      Metric("datasource.rows_decoded", decoded.sum.toDouble, "count"),
      Metric("datasource.rows_after_bits_frac", ratio(afterBits.sum.toDouble, decoded.sum.toDouble), "ratio"),
      Metric("datasource.raw_rows_parsed", rawRows.toDouble * unmatched, "count"),
      Metric("datasource.rows_examined_per_result", ratio(decoded.sum.toDouble, results.toDouble), "ratio"),
      Metric("spark.tasks", last.tasks._1.toDouble, "count"),
      Metric("spark.task_run_ms", best(_.tasks._2), "ms"),
      Metric("spark.task_cpu_ms", best(_.tasks._3), "ms"),
      Metric("spark.gc_ms", best(_.tasks._4), "ms"),
      Metric("trace.overhead_ms", in.overheadMs, "ms"),
    )
  }
}
