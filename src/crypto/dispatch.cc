#include "crypto/dispatch.hh"

#include <atomic>
#include <cstdio>
#include <cstdlib>

#if defined(__x86_64__) || defined(__i386__)
#include <cpuid.h>
#define MGSEC_DISPATCH_X86 1
#endif

namespace mgsec::crypto
{

namespace
{

CpuFeatures
probeCpu()
{
    CpuFeatures f;
#ifdef MGSEC_DISPATCH_X86
    unsigned eax = 0, ebx = 0, ecx = 0, edx = 0;
    if (__get_cpuid(1, &eax, &ebx, &ecx, &edx)) {
        f.pclmul = (ecx & bit_PCLMUL) != 0;
        f.ssse3 = (ecx & bit_SSSE3) != 0;
        f.aesni = (ecx & bit_AES) != 0;
    }
#endif
    return f;
}

/**
 * Resolved selection, reread by every crypto call. Relaxed atomics:
 * tools select an implementation before the job pool spawns workers,
 * and a torn read is impossible for a single enum-sized store.
 */
std::atomic<CryptoImpl> g_requested{CryptoImpl::Auto};
std::atomic<CryptoImpl> g_active{CryptoImpl::Portable};
std::atomic<bool> g_resolved{false};

CryptoImpl
envImpl()
{
    const char *env = std::getenv("MGSEC_CRYPTO_IMPL");
    if (env == nullptr)
        return CryptoImpl::Auto;
    CryptoImpl impl = CryptoImpl::Auto;
    if (!parseCryptoImpl(env, impl)) {
        static bool warned = false;
        if (!warned) {
            warned = true;
            std::fprintf(stderr,
                         "mgsec: ignoring bad MGSEC_CRYPTO_IMPL "
                         "value '%s' (want auto|portable|simd)\n",
                         env);
        }
        return CryptoImpl::Auto;
    }
    return impl;
}

void
resolve()
{
    CryptoImpl want = g_requested.load(std::memory_order_relaxed);
    if (want == CryptoImpl::Auto)
        want = envImpl();
    if (want == CryptoImpl::Auto)
        want = simdAvailable() ? CryptoImpl::Simd
                               : CryptoImpl::Portable;
    if (want == CryptoImpl::Simd && !simdAvailable()) {
        static bool warned = false;
        if (!warned) {
            warned = true;
            std::fprintf(stderr,
                         "mgsec: SIMD crypto requested but %s; "
                         "using the portable tier\n",
                         simdCompiledIn()
                             ? "this CPU lacks AES-NI/PCLMULQDQ/SSSE3"
                             : "this build carries no SIMD tier");
        }
        want = CryptoImpl::Portable;
    }
    g_active.store(want, std::memory_order_relaxed);
    g_resolved.store(true, std::memory_order_relaxed);
}

} // anonymous namespace

const CpuFeatures &
cpuFeatures()
{
    static const CpuFeatures f = probeCpu();
    return f;
}

bool
simdCompiledIn()
{
#ifdef MGSEC_HAVE_SIMD
    return true;
#else
    return false;
#endif
}

bool
simdAvailable()
{
    return simdCompiledIn() && cpuFeatures().all();
}

void
setCryptoImpl(CryptoImpl impl)
{
    g_requested.store(impl, std::memory_order_relaxed);
    resolve();
}

CryptoImpl
requestedCryptoImpl()
{
    return g_requested.load(std::memory_order_relaxed);
}

CryptoImpl
activeCryptoImpl()
{
    if (!g_resolved.load(std::memory_order_relaxed))
        resolve();
    return g_active.load(std::memory_order_relaxed);
}

bool
simdActive()
{
    return activeCryptoImpl() == CryptoImpl::Simd;
}

} // namespace mgsec::crypto
