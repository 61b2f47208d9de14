/* ChaCha20 (RFC 8439) and SipHash-2-4 (Aumasson-Bernstein): the record
   sublayer's per-byte kernels, in portable C99.

   chacha20.ml and siphash.ml check every argument before they call in
   (key and nonce lengths, offsets and lengths against their strings,
   the prefix length), so these functions trust what they are given.
   They allocate nothing and never call back into the runtime, which is
   what [@@noalloc] on their externals requires. The native entry points
   take untagged ints and SipHash returns an unboxed int64; the _byte
   entry points serve bytecode, where SipHash's result is boxed.

   Words are loaded and stored little-endian one byte at a time, whatever
   the host's byte order; compilers fuse these into single moves where the
   target allows. No intrinsics and no vector extensions. */

#include <stddef.h>
#include <stdint.h>
#include <caml/mlvalues.h>
#include <caml/alloc.h>

static inline uint32_t load32_le(const unsigned char *p)
{
  return (uint32_t)p[0] | (uint32_t)p[1] << 8 | (uint32_t)p[2] << 16
         | (uint32_t)p[3] << 24;
}

static inline void store32_le(unsigned char *p, uint32_t w)
{
  p[0] = (unsigned char)w;
  p[1] = (unsigned char)(w >> 8);
  p[2] = (unsigned char)(w >> 16);
  p[3] = (unsigned char)(w >> 24);
}

static inline uint64_t load64_le(const unsigned char *p)
{
  return (uint64_t)load32_le(p) | (uint64_t)load32_le(p + 4) << 32;
}

#define ROTL32(x, n) (((x) << (n)) | ((x) >> (32 - (n))))
#define ROTL64(x, n) (((x) << (n)) | ((x) >> (64 - (n))))

/* --- ChaCha20 --- */

#define QR(a, b, c, d)                    \
  do {                                    \
    a += b; d ^= a; d = ROTL32(d, 16);    \
    c += d; b ^= c; b = ROTL32(b, 12);    \
    a += b; d ^= a; d = ROTL32(d, 8);     \
    c += d; b ^= c; b = ROTL32(b, 7);     \
  } while (0)

/* XOR the keystream from block [counter] over src[0, len) into dst. The
   counter and nonce words arrive already reduced mod 2^32, and the block
   counter wraps there too. Each word of src is read before the same word
   of dst is written, so src may be dst: the transform then runs in
   place. */
static void chacha20_xor(const unsigned char *key, uint32_t counter, uint32_t n0,
                         uint32_t n1, uint32_t n2, const unsigned char *src,
                         unsigned char *dst, size_t len)
{
  uint32_t s[16], ks[16];
  s[0] = 0x61707865; s[1] = 0x3320646e; s[2] = 0x79622d32; s[3] = 0x6b206574;
  for (int i = 0; i < 8; i++) s[4 + i] = load32_le(key + 4 * i);
  s[12] = counter; s[13] = n0; s[14] = n1; s[15] = n2;
  while (len > 0) {
    uint32_t x0 = s[0], x1 = s[1], x2 = s[2], x3 = s[3];
    uint32_t x4 = s[4], x5 = s[5], x6 = s[6], x7 = s[7];
    uint32_t x8 = s[8], x9 = s[9], x10 = s[10], x11 = s[11];
    uint32_t x12 = s[12], x13 = s[13], x14 = s[14], x15 = s[15];
    for (int r = 0; r < 10; r++) {
      QR(x0, x4, x8, x12); QR(x1, x5, x9, x13);
      QR(x2, x6, x10, x14); QR(x3, x7, x11, x15);
      QR(x0, x5, x10, x15); QR(x1, x6, x11, x12);
      QR(x2, x7, x8, x13); QR(x3, x4, x9, x14);
    }
    ks[0] = x0 + s[0]; ks[1] = x1 + s[1]; ks[2] = x2 + s[2]; ks[3] = x3 + s[3];
    ks[4] = x4 + s[4]; ks[5] = x5 + s[5]; ks[6] = x6 + s[6]; ks[7] = x7 + s[7];
    ks[8] = x8 + s[8]; ks[9] = x9 + s[9]; ks[10] = x10 + s[10]; ks[11] = x11 + s[11];
    ks[12] = x12 + s[12]; ks[13] = x13 + s[13]; ks[14] = x14 + s[14];
    ks[15] = x15 + s[15];
    size_t lim = len < 64 ? len : 64, p = 0;
    for (; p + 4 <= lim; p += 4)
      store32_le(dst + p, load32_le(src + p) ^ ks[p / 4]);
    for (; p < lim; p++)
      dst[p] = src[p] ^ (unsigned char)(ks[p / 4] >> (8 * (p % 4)));
    src += lim;
    dst += lim;
    len -= lim;
    s[12]++;
  }
}

CAMLprim value bitkit_chacha20_xor(value key, intnat counter, intnat n0, intnat n1,
                                   intnat n2, value src, intnat spos, value dst,
                                   intnat dpos, intnat len)
{
  chacha20_xor((const unsigned char *)String_val(key), (uint32_t)counter,
               (uint32_t)n0, (uint32_t)n1, (uint32_t)n2,
               (const unsigned char *)String_val(src) + spos, Bytes_val(dst) + dpos,
               (size_t)len);
  return Val_unit;
}

CAMLprim value bitkit_chacha20_xor_byte(value *argv, int argn)
{
  (void)argn;
  return bitkit_chacha20_xor(argv[0], Long_val(argv[1]), Long_val(argv[2]),
                             Long_val(argv[3]), Long_val(argv[4]), argv[5],
                             Long_val(argv[6]), argv[7], Long_val(argv[8]),
                             Long_val(argv[9]));
}

/* --- SipHash-2-4 --- */

#define SIPROUND                                                    \
  do {                                                              \
    v0 += v1; v1 = ROTL64(v1, 13); v1 ^= v0; v0 = ROTL64(v0, 32);   \
    v2 += v3; v3 = ROTL64(v3, 16); v3 ^= v2;                        \
    v0 += v3; v3 = ROTL64(v3, 21); v3 ^= v0;                        \
    v2 += v1; v1 = ROTL64(v1, 17); v1 ^= v2; v2 = ROTL64(v2, 32);   \
  } while (0)

/* [k] (at most 8) bytes of [prefix || msg] from byte [j], little-endian
   in a word; the prefix is its [plen] low bytes. */
static inline uint64_t gather(uint64_t prefix, size_t plen, const unsigned char *msg,
                              size_t j, size_t k)
{
  uint64_t w = 0;
  for (size_t i = 0; i < k; i++, j++)
    w |= (uint64_t)(j < plen ? (unsigned char)(prefix >> (8 * j)) : msg[j - plen])
         << (8 * i);
  return w;
}

/* SipHash-2-4 of [prefix || msg[0, len)], the prefix being at most 7
   bytes: the first word straddles it, later words load straight from
   msg, and the last holds the tail plus the total length in its top
   byte. */
static uint64_t siphash24(const unsigned char *key, uint64_t prefix, size_t plen,
                          const unsigned char *msg, size_t len)
{
  uint64_t k0 = load64_le(key), k1 = load64_le(key + 8);
  uint64_t v0 = 0x736f6d6570736575ULL ^ k0, v1 = 0x646f72616e646f6dULL ^ k1;
  uint64_t v2 = 0x6c7967656e657261ULL ^ k0, v3 = 0x7465646279746573ULL ^ k1;
  size_t n = plen + len, full = n / 8;
  uint64_t m;
  for (size_t i = 0; i < full; i++) {
    m = (i == 0 && plen > 0) ? gather(prefix, plen, msg, 0, 8)
                             : load64_le(msg + (8 * i - plen));
    v3 ^= m;
    SIPROUND;
    SIPROUND;
    v0 ^= m;
  }
  m = gather(prefix, plen, msg, 8 * full, n % 8) | (uint64_t)n << 56;
  v3 ^= m;
  SIPROUND;
  SIPROUND;
  v0 ^= m;
  v2 ^= 0xff;
  SIPROUND;
  SIPROUND;
  SIPROUND;
  SIPROUND;
  return v0 ^ v1 ^ v2 ^ v3;
}

CAMLprim int64_t bitkit_siphash24(value key, intnat prefix, intnat prefix_len, value msg,
                                  intnat pos, intnat len)
{
  return (int64_t)siphash24((const unsigned char *)String_val(key), (uint64_t)prefix,
                            (size_t)prefix_len,
                            (const unsigned char *)String_val(msg) + pos, (size_t)len);
}

CAMLprim value bitkit_siphash24_byte(value *argv, int argn)
{
  (void)argn;
  return caml_copy_int64(bitkit_siphash24(argv[0], Long_val(argv[1]), Long_val(argv[2]),
                                          argv[3], Long_val(argv[4]), Long_val(argv[5])));
}
