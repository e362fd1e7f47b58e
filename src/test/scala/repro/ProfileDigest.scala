package repro

import java.nio.ByteBuffer
import java.security.MessageDigest

import repro.profile.Profiles

/** A fingerprint of a run's profiles, so that bench output shows whether
  * two builds profile every candidate to the same bits.
  *
  * Corr and MI are Spark sums whose order follows the partitioning, so
  * digests compare only between runs with the same number of cores and
  * the same `spark.sql.shuffle.partitions`.
  */
object ProfileDigest {

  /** Hex SHA-256 of every candidate's profile values as raw IEEE-754 bits
    * (big-endian), in candidate-id order.
    */
  def sha256(profiles: Profiles): String = {
    val md = MessageDigest.getInstance("SHA-256")
    val word = ByteBuffer.allocate(8)
    profiles.byId.keys.toVector.sorted.foreach { id =>
      profiles.byId(id).foreach { v =>
        word.clear()
        md.update(word.putLong(java.lang.Double.doubleToRawLongBits(v)).array())
      }
    }
    md.digest().map(b => f"${b & 0xff}%02x").mkString
  }
}
