/**
 * @file
 * Runtime dispatch between the portable crypto tier (S-box AES,
 * 4-bit Shoup GHASH) and the SIMD tier (AES-NI pipelined CTR,
 * PCLMUL GHASH).
 *
 * The selection is process-global and functional-plane only: it can
 * never change a simulated result, only how fast the functional
 * pads/MACs are computed. Resolution order:
 *
 *   1. an explicit setCryptoImpl(Portable|Simd) call (the
 *      `--crypto-impl` flag, threaded through SecurityConfig);
 *   2. the MGSEC_CRYPTO_IMPL environment variable
 *      (`auto|portable|simd`);
 *   3. auto-detection: SIMD iff the binary carries the AES-NI/PCLMUL
 *      translation units *and* CPUID reports AES-NI + PCLMULQDQ +
 *      SSSE3.
 *
 * Forcing `simd` on a machine that cannot run it degrades to the
 * portable tier with a one-time warning instead of crashing — the
 * portable build must stay green everywhere.
 */

#ifndef MGSEC_CRYPTO_DISPATCH_HH
#define MGSEC_CRYPTO_DISPATCH_HH

#include <string>

#include "sim/knob.hh"

namespace mgsec::crypto
{

/** Which functional-crypto tier to use. */
enum class CryptoImpl
{
    Auto,     ///< env override, else detect (the default)
    Portable, ///< force the portable S-box/Shoup-table tier
    Simd,     ///< force AES-NI/PCLMUL (falls back if unsupported)
};

/** The x86 feature bits the SIMD tier needs. */
struct CpuFeatures
{
    bool aesni = false;
    bool pclmul = false;
    bool ssse3 = false;

    bool all() const { return aesni && pclmul && ssse3; }
};

/** CPUID probe; cached after the first call. */
const CpuFeatures &cpuFeatures();

/** True when the aesni/clmul TUs were compiled into this binary. */
bool simdCompiledIn();

/** simdCompiledIn() and the CPU can actually run those TUs. */
bool simdAvailable();

/**
 * Request an implementation. Auto re-resolves from the environment
 * and CPU detection. Takes effect immediately for every subsequent
 * crypto call (the primitives dispatch per call, not per object).
 */
void setCryptoImpl(CryptoImpl impl);

/** The last value passed to setCryptoImpl() (Auto initially). */
CryptoImpl requestedCryptoImpl();

/** The tier actually in use right now: Portable or Simd, never Auto. */
CryptoImpl activeCryptoImpl();

/** activeCryptoImpl() == Simd. */
bool simdActive();

inline constexpr EnumName<CryptoImpl> kCryptoImplNames[] = {
    {CryptoImpl::Auto, "auto"},
    {CryptoImpl::Portable, "portable"},
    {CryptoImpl::Simd, "simd"}};

/** Parse "auto" / "portable" / "simd" (case-insensitive). */
inline bool
parseCryptoImpl(const std::string &text, CryptoImpl &out)
{
    return parseIn(kCryptoImplNames, text, out);
}

/** Stable lowercase name of @p impl. */
inline const char *
cryptoImplName(CryptoImpl impl)
{
    return nameIn(kCryptoImplNames, impl);
}

} // namespace mgsec::crypto

#endif // MGSEC_CRYPTO_DISPATCH_HH
