/**
 * @file
 * Security analysis companion (paper Sec IV-D): demonstrate, against the
 * real crypto, that (1) tampering and replay are detected by the MAC,
 * (2) swapping address and counter cannot reproduce an OTP (type-A
 * repeats), (3) the truncated combine is not invertible by construction
 * (information destroyed), and (4) OTP streams look random to NIST.
 */
#include <cstdio>
#include <set>

#include "crypto/mac.hpp"
#include "crypto/nist.hpp"
#include "crypto/otp.hpp"

using namespace rmcc::crypto;

int
main()
{
    const RmccOtpEngine otp(Aes::fromSeed(101), Aes::fromSeed(202));
    const BlockCodec codec(otp);
    const MacEngine mac(42);

    // -- 1. Tamper and replay detection --------------------------------
    DataBlock secret;
    for (unsigned w = 0; w < kWordsPerBlock; ++w)
        secret[w] = makeBlock(0xdeedULL * (w + 1), w);
    const std::uint64_t address = 0x7000, counter = 900;
    const DataBlock ct = codec.encode(secret, address, counter);
    const std::uint64_t tag = mac.mac(ct, otp.macOtp(address, counter));

    DataBlock flipped = ct;
    flipped[2][5] ^= 0x20;
    const bool tamper_caught =
        mac.mac(flipped, otp.macOtp(address, counter)) != tag;
    std::printf("bit-flip tampering detected:        %s\n",
                tamper_caught ? "yes" : "NO (BUG)");

    // Replay: old ciphertext re-verified under the advanced counter.
    const bool replay_caught =
        mac.mac(ct, otp.macOtp(address, counter + 1)) != tag;
    std::printf("stale-data replay detected:         %s\n",
                replay_caught ? "yes" : "NO (BUG)");

    // Relocation: same ciphertext presented at another address.
    const bool splice_caught =
        mac.mac(ct, otp.macOtp(address + 64, counter)) != tag;
    std::printf("block relocation detected:          %s\n",
                splice_caught ? "yes" : "NO (BUG)");

    // -- 2. Type-A repeats eliminated by zero-pad domain separation ----
    std::set<std::pair<std::uint64_t, std::uint64_t>> otps;
    bool collision = false;
    for (std::uint64_t x = 1; x <= 64; ++x)
        for (std::uint64_t y = 1; y <= 64; ++y)
            collision |= !otps.insert(splitBlock(
                                          otp.encryptionOtp(x * 64, 0, y)))
                              .second;
    std::printf("OTP(addr=x,ctr=y) vs OTP(addr=y,ctr=x) collisions over "
                "a 64x64 grid: %s\n",
                collision ? "FOUND (BUG)" : "none");

    // -- 3. Truncation destroys information ----------------------------
    // Many distinct (counter-only, address-only) pairs share a truncated
    // product prefix: the combine is lossy, so no system of OTP
    // equations can be solved back to the AES factors (Sec IV-D1).
    std::set<std::uint64_t> prefixes;
    const int samples = 1 << 14;
    for (int i = 0; i < samples; ++i) {
        const Block128 pad = otp.encryptionOtp(
            0x1000 + 64ULL * (i % 128), 0, 1000 + i / 128);
        prefixes.insert(splitBlock(pad).first >> 48); // 16-bit prefix
    }
    std::printf("distinct 16-bit OTP prefixes in %d samples: %zu "
                "(saturated => looks uniform)\n",
                samples, prefixes.size());

    // -- 4. NIST randomness of the OTP stream --------------------------
    BitStream stream;
    for (std::uint64_t i = 0; i < 2048; ++i) {
        const Block128 pad =
            otp.encryptionOtp(64 * (i % 512), i % 4, 5000 + i / 16);
        stream.appendBytes(pad.data(), pad.size());
    }
    std::puts("NIST SP 800-22 battery on the OTP stream:");
    bool all_pass = true;
    for (const NistResult &r : runNistBattery(stream)) {
        std::printf("  %-16s p=%.4f  %s\n", r.name.c_str(), r.p_value,
                    r.pass ? "pass" : "FAIL");
        all_pass &= r.pass;
    }

    return tamper_caught && replay_caught && splice_caught &&
                   !collision && all_pass
               ? 0
               : 1;
}
