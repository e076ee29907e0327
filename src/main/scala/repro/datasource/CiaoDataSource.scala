package repro.datasource

import java.util.{Map => JMap}

import org.apache.spark.sql.catalyst.InternalRow
import org.apache.spark.sql.connector.catalog.{SupportsRead, Table, TableCapability, TableProvider}
import org.apache.spark.sql.connector.expressions.Transform
import org.apache.spark.sql.connector.read._
import org.apache.spark.sql.sources.{DataSourceRegister, Filter}
import org.apache.spark.sql.types.StructType
import org.apache.spark.sql.util.CaseInsensitiveStringMap

import repro.core.BitVec
import repro.json.JsonParser
import repro.server._

/** CIAO's data-skipping scan as a Spark DataSource V2 (`format("ciao")`).
  *
  * Reading path (paper §VI-B): Spark pushes the query's conjunctive
  * predicates via [[SupportsPushDownFilters]]; each conjunct is matched
  * against the store's pushed-predicate registry. If at least one matches,
  * only Parquet chunks are scanned and the matched predicates' sidecar
  * bit-vectors are ANDed to skip rows; unloaded `.raw` JSON need not be
  * read because those objects failed every pushed predicate. If no filter
  * matches, both Parquet chunks and `.raw` JSON chunks are scanned (the
  * raw side is parsed just-in-time). All filters are reported back to Spark
  * as residuals because client-side string matching admits false positives.
  */
class CiaoDataSource extends TableProvider with DataSourceRegister {

  override def shortName(): String = "ciao"

  override def supportsExternalMetadata(): Boolean = true

  /** One provider serves one `load()`: `inferSchema` and `getTable` share the manifest it reads. */
  private var opened: (String, ChunkStore.Manifest) = (null, null)
  private def manifest(dir: String): ChunkStore.Manifest = {
    if (opened._1 != dir) opened = (dir, ChunkStore.readManifest(dir))
    opened._2
  }

  override def inferSchema(options: CaseInsensitiveStringMap): StructType =
    manifest(CiaoDataSource.dirFrom(options)).schema

  override def getTable(schema: StructType, partitioning: Array[Transform], properties: JMap[String, String]): Table = {
    val dir = CiaoDataSource.dirFrom(properties)
    new CiaoTable(dir, schema, manifest(dir))
  }
}

object CiaoDataSource {
  def dirFrom(options: JMap[String, String]): String =
    Option(options.get("path"))
      .getOrElse(throw new IllegalArgumentException("ciao source requires a path option"))

  /** Fail the scan when a chunk file holds another row count than the manifest records. */
  private[datasource] def requireRows(path: String, found: Long, recorded: Long): Unit =
    if (found != recorded)
      throw new IllegalStateException(s"$path holds $found rows but the store manifest records $recorded")

  /** The Spark schema of a store schema: the store schema already is one. */
  def sparkSchema(schema: StructType): StructType = schema
}

/** Batch-readable table over one CIAO store directory; every query plans from `manifest`. */
class CiaoTable(dir: String, schema: StructType, manifest: ChunkStore.Manifest) extends Table with SupportsRead {
  override def name(): String = s"ciao:$dir"
  override def schema(): StructType = schema
  override def capabilities(): java.util.Set[TableCapability] =
    java.util.EnumSet.of(TableCapability.BATCH_READ)
  override def newScanBuilder(options: CaseInsensitiveStringMap): ScanBuilder =
    new CiaoScanBuilder(dir, schema, manifest)
}

/** Scan builder holding the filter-pushdown negotiation with Catalyst. */
class CiaoScanBuilder(dir: String, schema: StructType, manifest: ChunkStore.Manifest)
    extends ScanBuilder with SupportsPushDownFilters {

  private var matchedIds: Array[Int]        = Array.empty
  private var matchedFilters: Array[Filter] = Array.empty

  override def pushFilters(filters: Array[Filter]): Array[Filter] = {
    val (ids, hit) = DataSkipping.matchPushed(filters.toSeq, manifest.registry)
    matchedIds = ids.toArray
    matchedFilters = hit.toArray
    // Everything is residual: client string matching has false positives,
    // so Spark must re-evaluate every predicate above the scan (§IV-B).
    filters
  }

  /** The filters the scan *uses* (for skipping) — surfaces in EXPLAIN. */
  override def pushedFilters(): Array[Filter] = matchedFilters

  override def build(): Scan = new CiaoScan(dir, schema, manifest, matchedIds)
}

/** The scan: one input partition per chunk file. */
class CiaoScan(dir: String, schema: StructType, manifest: ChunkStore.Manifest, matchedIds: Array[Int])
    extends Scan with Batch {

  override def readSchema(): StructType = schema
  override def toBatch: Batch = this
  override def description(): String =
    s"CiaoScan(dir=$dir, skippingPredicates=${matchedIds.mkString("[", ",", "]")})"

  override def planInputPartitions(): Array[InputPartition] = {
    val chunks  = manifest.chunks.map(c => (c, c.files(dir)))
    val parquet = chunks.flatMap { case (c, f) =>
      f.parquet.map(ParquetChunkPartition(_, c.loadedRows, f.bits, matchedIds, manifest.schema))
    }
    // No pushed predicate in this query: raw JSON must be scanned too.
    val raw = if (matchedIds.nonEmpty) Vector.empty else chunks.flatMap { case (c, f) =>
      f.raw.map(RawChunkPartition(_, c.rawRows, manifest.schema))
    }
    (parquet ++ raw).toArray[InputPartition]
  }

  override def createReaderFactory(): PartitionReaderFactory = new CiaoReaderFactory
}

/** A loaded Parquet chunk of `rows` rows (+ optional sidecar bit-vectors). */
final case class ParquetChunkPartition(
    parquetPath: String,
    rows: Long,
    bitsPath: Option[String],
    skipIds: Array[Int],
    tableSchema: StructType,
) extends InputPartition

/** An unloaded raw-JSON chunk of `rows` lines, parsed just-in-time. */
final case class RawChunkPartition(rawPath: String, rows: Long, tableSchema: StructType) extends InputPartition

class CiaoReaderFactory extends PartitionReaderFactory {
  override def createReader(partition: InputPartition): PartitionReader[InternalRow] =
    partition match {
      case p: ParquetChunkPartition => new ParquetChunkReader(p)
      case p: RawChunkPartition     => new RawChunkReader(p)
      case other => throw new IllegalArgumentException(s"unexpected partition $other")
    }
}

/** Reads one Parquet chunk batch by batch, skipping rows whose combined
  * (ANDed) bit across the scan's matched predicates is 0.
  */
class ParquetChunkReader(p: ParquetChunkPartition) extends PartitionReader[InternalRow] {
  private val reader = new ParquetIO.BatchReader(p.parquetPath, p.tableSchema)
  try CiaoDataSource.requireRows(p.parquetPath, reader.rowCount, p.rows)
  catch { case e: IllegalStateException => reader.close(); throw e }
  private val batch  = reader.resultBatch()
  private val combined: Option[BitVec] =
    if (p.skipIds.isEmpty) None
    else p.bitsPath.map(bp => DataSkipping.combinedBits(ChunkStore.readBits(bp), p.skipIds.toSeq, reader.rowCount.toInt))

  private var batchStart = 0  // file row index of the batch's first row
  private var i          = -1 // current row within the batch

  override def next(): Boolean = {
    var more = advance()
    while (more && !combined.forall(_.get(batchStart + i))) more = advance()
    more
  }

  /** Step to the next row of the file; false past its last row. */
  private def advance(): Boolean = {
    i += 1
    if (i < batch.numRows()) true
    else { batchStart += batch.numRows(); i = 0; reader.nextBatch() }
  }

  override def get(): InternalRow = batch.getRow(i)

  override def close(): Unit = reader.close()
}

/** Parses one `.raw` JSON chunk just-in-time and emits every object. */
class RawChunkReader(p: RawChunkPartition) extends PartitionReader[InternalRow] {
  private val lines = {
    val all = ChunkStore.readRawLines(p.rawPath)
    CiaoDataSource.requireRows(p.rawPath, all.size.toLong, p.rows)
    all.iterator
  }
  private var current: InternalRow = _

  override def next(): Boolean = {
    if (!lines.hasNext) false
    else {
      current = TableSchema.extractRow(p.tableSchema, JsonParser.parseObject(lines.next()))
      true
    }
  }

  override def get(): InternalRow = current

  override def close(): Unit = ()
}
