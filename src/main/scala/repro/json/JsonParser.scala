package repro.json

import com.fasterxml.jackson.core.{JsonFactory, JsonLocation, JsonProcessingException, JsonToken}
import com.fasterxml.jackson.core.{JsonParser => Tokenizer}

/** JSON parser: Jackson's streaming tokenizer (the jackson-core Spark ships;
  * rapidJSON substitute, see DESIGN.md §3) walked into a [[JsonValue]] tree.
  *
  * Numbers keep their lexeme. Malformed input, and input past Jackson's
  * stream limits (such as nesting deeper than 1000), throws
  * [[JsonParseException]] with the offending char offset, -1 when unknown.
  */
object JsonParser {

  final case class JsonParseException(msg: String, pos: Int)
      extends RuntimeException(s"$msg at offset $pos")

  /** Thread-safe; shared so every parser reuses its field-name table and buffers. */
  private val factory = new JsonFactory()

  /** Parse a complete JSON document; trailing non-whitespace is an error. */
  def parse(s: String): JsonValue = {
    val p = factory.createParser(s)
    try {
      if (p.nextToken() == null) fail("unexpected eof", p.currentLocation)
      val v = value(p)
      if (p.nextToken() != null) fail(s"trailing content '${p.getText}'", p.currentTokenLocation)
      v
    } catch {
      case e: JsonProcessingException => fail(e.getOriginalMessage, e.getLocation)
    } finally p.close()
  }

  /** Parse a JSON object document, failing if the top-level value is not an object. */
  def parseObject(s: String): JObj = parse(s) match {
    case o: JObj => o
    case other   => throw JsonParseException(s"expected object, got ${other.getClass.getSimpleName}", 0)
  }

  private def fail(msg: String, at: JsonLocation): Nothing =
    throw JsonParseException(msg, if (at == null) -1 else at.getCharOffset.toInt)

  /** The value starting at the current token; leaves `p` on its last token. */
  private def value(p: Tokenizer): JsonValue = p.currentToken match {
    case JsonToken.START_OBJECT =>
      val fields = Vector.newBuilder[(String, JsonValue)]
      while (p.nextToken() == JsonToken.FIELD_NAME) {
        val k = p.currentName
        p.nextToken()
        fields += ((k, value(p)))
      }
      JObj(fields.result())
    case JsonToken.START_ARRAY =>
      val items = Vector.newBuilder[JsonValue]
      while (p.nextToken() != JsonToken.END_ARRAY) items += value(p)
      JArr(items.result())
    case JsonToken.VALUE_STRING                                    => JStr(p.getText)
    case JsonToken.VALUE_NUMBER_INT | JsonToken.VALUE_NUMBER_FLOAT => JNum(p.getText)
    case JsonToken.VALUE_TRUE                                      => JBool(true)
    case JsonToken.VALUE_FALSE                                     => JBool(false)
    case JsonToken.VALUE_NULL                                      => JNull
    case t                                                         => fail(s"unexpected token $t", p.currentTokenLocation)
  }
}
