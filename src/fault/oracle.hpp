/**
 * @file
 * The detection oracle: a crypto-functional shadow of the off-chip
 * memory image, verified with the repository's real AES/CLMUL/Galois-MAC
 * substrate.
 *
 * The simulators model latency and traffic, not payloads, so nothing in
 * SecureMc ever actually encrypts a block — which means nothing ever
 * proves that the memoized OTP/MAC path rejects tampering the way the
 * baseline SGX construction does.  The oracle closes that gap.  It
 * observes the controller's data plane (McObserver) and maintains, for
 * every written data block and every integrity-tree node on a verified
 * path, the literal stored image an attacker could touch:
 *
 *  - data blocks: ciphertext under the block's current L0 counter
 *    (baseline or RMCC split OTP) plus the 56-bit Galois MAC;
 *  - counter nodes: the block's logical counter values serialized to a
 *    64 B image, MACed under the parent counter (the on-chip root is the
 *    trust anchor and cannot be perturbed).
 *
 * On every read the oracle re-derives the full verdict: each node MAC on
 * the path is recomputed under the value stored in its (possibly
 * tampered) parent, the data MAC under the stored (possibly tampered, or
 * memo-supplied) L0 value, and finally the plaintext is decrypted and
 * compared against what the writer actually wrote.  Every injected fault
 * is thereby classified as detected (some check failed), masked (no
 * authenticated value changed), or SILENT CORRUPTION (all checks passed,
 * wrong plaintext delivered) — the set that must be empty.
 *
 * Shadow images of unperturbed units are lazily refreshed from the
 * counter-tree truth before verification.  That models the legitimate
 * re-encryptions (writebacks, relevels, rebase-on-overflow) without
 * hooking every counter mutation; a unit pinned by a pending fault is
 * never refreshed, so the perturbed image is exactly what verification
 * sees.  The paper's construction truncates MACs to 56 bits; mac_bits
 * can shrink the compared width to prove the harness reports nonzero
 * silent corruptions for a deliberately weakened oracle.
 */
#ifndef RMCC_FAULT_ORACLE_HPP
#define RMCC_FAULT_ORACLE_HPP

#include <memory>
#include <optional>
#include <unordered_map>
#include <vector>

#include "counters/tree.hpp"
#include "crypto/mac.hpp"
#include "crypto/otp.hpp"
#include "fault/plan.hpp"
#include "mc/secure_mc.hpp"

namespace rmcc::fault
{

/** Oracle construction knobs. */
struct OracleConfig
{
    bool split_otp = true; //!< RMCC split OTP; false = SGX baseline OTP.
    unsigned mac_bits = 56; //!< Compared MAC width; < 56 weakens on purpose.
    std::uint64_t key_seed = 0xfa177; //!< Derives AES and MAC keys.
};

/** Outcome of re-deriving the verdict of one read. */
struct Verdict
{
    bool pass = true;    //!< Every MAC check on the path verified.
    bool correct = true; //!< Delivered plaintext matches the written truth.
    int fail_level = -2; //!< -1 = data MAC, k >= 0 = node MAC at level k.
};

/**
 * Crypto-functional shadow memory + verification + fault bookkeeping.
 */
class DetectionOracle : public mc::McObserver
{
  public:
    /** The tree is borrowed and must outlive the oracle. */
    DetectionOracle(const OracleConfig &cfg, ctr::IntegrityTree &tree);

    // --- McObserver: the controller's data plane ------------------------
    void onDataWrite(addr::BlockId blk) override;
    void onDataRead(addr::BlockId blk, bool memo_hit) override;

    // --- McObserver: recovery hooks --------------------------------------

    /**
     * Re-derive the verdict for the recovering controller.  The FIRST
     * verdict derived while a fault is armed is latched for
     * classifyPendingFromCheck(): recovery heals the image before
     * classification, and classifying from a post-heal re-verify would
     * misreport a detected fault as masked.
     */
    mc::McReadCheck checkRead(addr::BlockId blk, bool memo_hit) override;

    /**
     * Stage-1 re-fetch: when the armed fault was marked transient (it
     * lived in the transfer, not the stored cells), the re-fetched image
     * is the intact stored unit — heal it and report success.
     */
    bool onRefetch(addr::BlockId blk) override;

    /**
     * Stage-2 reconstruction: the controller rebuilt every counter on
     * blk's path by walking the integrity tree from the on-chip root, so
     * stored node images revert to tree truth (data images are untouched
     * — there is no redundant copy of data to rebuild from).
     */
    void reconstructCounterPath(addr::BlockId blk) override;

    /**
     * Re-derive the full MAC/tree verdict for a read of blk and decrypt.
     * Refreshes unpinned shadow units first; a block never written is
     * vacuously fine.
     */
    Verdict verifyRead(addr::BlockId blk, bool memo_hit);

    // --- injection interface (used by the Injector) ---------------------
    // Each perturbs the stored image and returns false when the request
    // cannot change anything (the injector then records a Masked fault).

    /** Flip `len` ciphertext bits of blk starting at `bit` (of 512). */
    bool flipCiphertext(addr::BlockId blk, unsigned bit, unsigned len);
    /** Flip `len` stored-MAC bits of blk starting at `bit` (of 56). */
    bool flipMac(addr::BlockId blk, unsigned bit, unsigned len);
    /** Flip bits of stored counter value `entry` in node (level, cb). */
    bool flipNodeValue(unsigned level, addr::CounterBlockId cb,
                       unsigned entry, unsigned bit, unsigned len);
    /** Roll stored counter value `entry` in node (level, cb) back. */
    bool rollbackNodeValue(unsigned level, addr::CounterBlockId cb,
                           unsigned entry, std::uint64_t delta);
    /** Replace blk's stored image with its previous version. */
    bool replayData(addr::BlockId blk);
    /** Replace node (level, cb)'s stored image with its previous one. */
    bool replayNode(unsigned level, addr::CounterBlockId cb);
    /** Arm a memo-entry fault: value orig reads back as perturbed. */
    bool corruptMemoValue(addr::CounterValue orig,
                          addr::CounterValue perturbed);

    // --- fault lifecycle -------------------------------------------------

    /** Register rec as the pending fault (pins its unit). */
    void armFault(const FaultRecord &rec);
    /** Record a fault that could not be applied (outcome pre-set). */
    void recordImmediate(FaultRecord rec);
    /** Whether a fault is armed and awaiting classification. */
    bool hasPending() const { return pending_.has_value(); }
    const FaultRecord &pending() const { return *pending_; }
    /**
     * Force the pending fault's readback: verify its readback block,
     * classify (detected / masked / silent), heal the perturbed unit
     * back to truth, and append the finished record.
     */
    FaultOutcome classifyPending(bool memo_hit);

    /**
     * Mark the armed fault transient: a stage-1 re-fetch reads the intact
     * stored unit and heals it (storm campaigns draw the transient /
     * persistent split from their plan).
     */
    void markPendingTransient() { pending_transient_ = true; }

    /** Whether the armed fault is marked transient. */
    bool pendingTransient() const { return pending_transient_; }

    /**
     * Classify the pending fault from the verdict latched by the
     * recovering controller's first checkRead() — the image may have been
     * healed since.  Falls back to a fresh verifyRead() when no check ran
     * (recovery off).
     */
    FaultOutcome classifyPendingFromCheck();

    // --- injector/campaign queries ---------------------------------------

    /** Every data block ever written, in first-write order. */
    const std::vector<addr::BlockId> &writtenBlocks() const
    {
        return write_order_;
    }
    /** Stored L0 counter value a read of blk would decode (materializes). */
    addr::CounterValue storedL0Value(addr::BlockId blk);
    /** Materialize every node on blk's path (pre-injection snapshot). */
    void materializePath(addr::BlockId blk);
    /** Stored data/node images differ from their previous version? */
    bool hasDistinctPrevData(addr::BlockId blk) const;
    bool hasDistinctPrevNode(unsigned level, addr::CounterBlockId cb) const;
    /** Stored values of node (level, cb); nullptr if never materialized. */
    const std::vector<addr::CounterValue> *
    storedNodeValues(unsigned level, addr::CounterBlockId cb) const;
    /**
     * A written block whose readback decodes entry `slot` of node
     * (level, cb) — the block a replay of that node would mis-verify.
     */
    std::optional<addr::BlockId>
    coveredWrittenBlock(unsigned level, addr::CounterBlockId cb,
                        std::uint64_t slot) const;

    const ctr::IntegrityTree &tree() const { return tree_; }
    const OracleConfig &config() const { return cfg_; }
    const FaultStats &stats() const { return stats_; }
    FaultStats &stats() { return stats_; }
    /** Every classified fault, in injection order. */
    const std::vector<FaultRecord> &records() const { return records_; }

  private:
    /** A stored data-block image (what DRAM holds). */
    struct StoredData
    {
        crypto::DataBlock ct{};
        std::uint64_t tag = 0;        //!< Full 56-bit stored MAC.
        addr::CounterValue ctr = 0;   //!< Counter the image is under.
        std::uint64_t version = 0;    //!< Write generation encoded.
    };
    struct DataEntry
    {
        StoredData cur, prev;
        bool has_prev = false;
        std::uint64_t truth_version = 0; //!< Latest write generation.
    };
    /** A stored counter-node image. */
    struct StoredNode
    {
        std::vector<addr::CounterValue> values;
        std::uint64_t tag = 0;
        addr::CounterValue parent = 0; //!< Parent value the tag is under.
    };
    struct NodeEntry
    {
        StoredNode cur, prev;
        bool has_prev = false;
    };

    static std::uint64_t nodeKey(unsigned level, addr::CounterBlockId cb)
    {
        return (static_cast<std::uint64_t>(level) << 56) | cb;
    }

    /** Deterministic plaintext truth of (blk, version). */
    crypto::DataBlock plaintext(addr::BlockId blk,
                                std::uint64_t version) const;
    /** Serialize node counter values into a MAC-able 64 B image. */
    static crypto::DataBlock
    serializeValues(const std::vector<addr::CounterValue> &values);

    /** Parent counter truth of node (level, cb); on-chip root above top. */
    addr::CounterValue parentTruth(unsigned level,
                                   addr::CounterBlockId cb) const;
    /** MAC of a node image under a given parent value. */
    std::uint64_t nodeMac(unsigned level, addr::CounterBlockId cb,
                          const std::vector<addr::CounterValue> &values,
                          addr::CounterValue parent) const;
    /** MAC of a data image under a given counter value. */
    std::uint64_t dataMac(addr::BlockId blk, const crypto::DataBlock &ct,
                          addr::CounterValue ctr) const;

    /** Counter blocks on blk's path, bottom-up (size = tree levels). */
    std::vector<addr::CounterBlockId> pathOf(addr::BlockId blk) const;

    /** Refresh a unit from tree truth unless pinned by the pending fault. */
    void refreshData(addr::BlockId blk, bool force = false);
    void refreshNode(unsigned level, addr::CounterBlockId cb,
                     bool force = false);
    bool pinnedData(addr::BlockId blk) const;
    bool pinnedNode(unsigned level, addr::CounterBlockId cb) const;
    /** Does the pending fault sit on blk's readback path? */
    bool pendingOnPath(addr::BlockId blk, bool memo_hit,
                       addr::CounterValue l0_value) const;
    /** Restore the pending fault's unit to truth and retire the record. */
    void finalizePending(FaultOutcome outcome, const Verdict &v);

    /** Heal the pending fault's unit without retiring the record. */
    void healPendingUnit();

    /** Truncated-MAC inequality under the configured compare width. */
    bool macDiffers(std::uint64_t a, std::uint64_t b) const
    {
        return ((a ^ b) & mac_compare_mask_) != 0;
    }

    OracleConfig cfg_;
    ctr::IntegrityTree &tree_;
    std::unique_ptr<crypto::OtpEngine> otp_;
    crypto::MacEngine mac_;
    std::uint64_t mac_compare_mask_;

    std::unordered_map<addr::BlockId, DataEntry> data_;
    std::unordered_map<std::uint64_t, NodeEntry> nodes_;
    std::vector<addr::BlockId> write_order_;

    std::optional<FaultRecord> pending_;
    //! Armed memo-entry fault: reads memo-hitting on first see second.
    std::optional<std::pair<addr::CounterValue, addr::CounterValue>>
        memo_fault_;
    //! First verdict derived via checkRead() while a fault was armed.
    std::optional<Verdict> first_check_;
    bool pending_transient_ = false;

    FaultStats stats_;
    std::vector<FaultRecord> records_;
};

} // namespace rmcc::fault

#endif // RMCC_FAULT_ORACLE_HPP
