package repro.server

import scala.jdk.CollectionConverters._

import org.apache.hadoop.conf.Configuration
import org.apache.hadoop.fs.Path
import org.apache.parquet.hadoop.ParquetWriter
import org.apache.parquet.hadoop.api.WriteSupport
import org.apache.spark.sql.catalyst.InternalRow
import org.apache.spark.sql.catalyst.expressions.GenericInternalRow
import org.apache.spark.sql.execution.datasources.parquet.{ParquetWriteSupport, VectorizedParquetRecordReader}
import org.apache.spark.sql.internal.SQLConf
import org.apache.spark.unsafe.types.UTF8String

import repro.datasource.CiaoDataSource
import repro.json.{JBool, JNum, JObj, JStr}

/** Flat table schema of a CIAO store (the columns queries touch).
  * Rows are Spark `InternalRow`s aligned with `cols`; their Spark types are
  * [[CiaoDataSource.sparkSchema]].
  */
final case class TableSchema(cols: Vector[TableSchema.Col]) extends Serializable {
  def names: Vector[String] = cols.map(_.name)
}

object TableSchema {
  sealed trait ColType extends Serializable
  case object CString extends ColType
  case object CLong   extends ColType
  case object CDouble extends ColType
  case object CBool   extends ColType

  final case class Col(name: String, tpe: ColType) extends Serializable

  /** Extract the schema's columns from a parsed JSON object; absent or type-mismatched
    * fields, and numbers a long column cannot hold exactly, become null.
    */
  def extractRow(schema: TableSchema, obj: JObj): GenericInternalRow =
    new GenericInternalRow(schema.cols.map { col =>
      (obj.get(col.name), col.tpe) match {
        case (Some(JStr(s)), CString)  => UTF8String.fromString(s)
        case (Some(JNum(raw)), CLong)  => raw.toLongOption.getOrElse(null)
        case (Some(n: JNum), CDouble)  => n.toDouble
        case (Some(JBool(b)), CBool)   => b
        case _                         => null
      }
    }.toArray[Any])
}

/** Parquet chunk files, written with Spark's `ParquetWriteSupport` and read
  * with Spark's `VectorizedParquetRecordReader`. Row order inside a chunk
  * file is load order, which keeps the sidecar bit-vectors aligned by row
  * index.
  */
object ParquetIO {

  /** Write one chunk file; rows align with `schema.cols`. */
  def writeChunk(path: String, schema: TableSchema, rows: Iterable[InternalRow]): Unit = {
    val writer = new RowWriterBuilder(new Path(path)).withConf(writeConf(schema)).build()
    try rows.foreach(writer.write) finally writer.close()
  }

  private final class RowWriterBuilder(path: Path)
      extends ParquetWriter.Builder[InternalRow, RowWriterBuilder](path) {
    override def self(): RowWriterBuilder = this
    override def getWriteSupport(conf: Configuration): WriteSupport[InternalRow] = new ParquetWriteSupport
  }

  /** The row schema plus the four keys Spark's own write path sets, which
    * `ParquetWriteSupport` reads without a fallback; each takes its default.
    */
  private def writeConf(schema: TableSchema): Configuration = {
    val conf = new Configuration(false)
    ParquetWriteSupport.setSchema(CiaoDataSource.sparkSchema(schema), conf)
    Seq(SQLConf.PARQUET_WRITE_LEGACY_FORMAT, SQLConf.PARQUET_OUTPUT_TIMESTAMP_TYPE,
      SQLConf.PARQUET_FIELD_ID_WRITE_ENABLED, SQLConf.PARQUET_ANNOTATE_VARIANT_LOGICAL_TYPE)
      .foreach(e => conf.set(e.key, e.defaultValueString))
    conf
  }

  /** Spark's vectorized reader over one chunk file's `schema` columns, with
    * the file's row count. Read through `resultBatch`/`nextBatch`; close it.
    */
  final class BatchReader(path: String, schema: TableSchema)
      extends VectorizedParquetRecordReader(false, SQLConf.PARQUET_VECTORIZED_READER_BATCH_SIZE.defaultValue.get) {
    initialize(path, schema.names.asJava)
    def rowCount: Long = totalRowCount
  }

  /** Read a whole chunk eagerly (tests / small chunks). */
  def readChunk(path: String, schema: TableSchema): Vector[InternalRow] = {
    val reader = new BatchReader(path, schema)
    try {
      val batch = reader.resultBatch()
      val rows  = Vector.newBuilder[InternalRow]
      while (reader.nextBatch()) batch.rowIterator().asScala.foreach(rows += _.copy())
      rows.result()
    } finally reader.close()
  }
}
