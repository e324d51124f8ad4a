#include "crypto/bignum.h"

#include <algorithm>
#include <array>
#include <iterator>
#include <memory>
#include <optional>
#include <stdexcept>

namespace monatt::crypto
{

namespace
{

/** Small primes for trial division during prime generation. */
constexpr std::uint32_t kSmallPrimes[] = {
    3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41, 43, 47, 53, 59, 61, 67,
    71, 73, 79, 83, 89, 97, 101, 103, 107, 109, 113, 127, 131, 137, 139,
    149, 151, 157, 163, 167, 173, 179, 181, 191, 193, 197, 199, 211, 223,
    227, 229, 233, 239, 241, 251, 257, 263, 269, 271, 277, 281, 283, 293,
    307, 311, 313, 317, 331, 337, 347, 349, 353, 359, 367, 373, 379, 383,
    389, 397, 401, 409, 419, 421, 431, 433, 439, 443, 449, 457, 461, 463,
};

/** A run kSmallPrimes[begin, end) whose product fits in one word. */
struct PrimeRun
{
    std::uint32_t product;
    std::size_t begin;
    std::size_t end;
};

/** kSmallPrimes cut greedily into runs with 32-bit products. */
struct PrimeRuns
{
    std::array<PrimeRun, std::size(kSmallPrimes)> run{};
    std::size_t count = 0;
};

constexpr PrimeRuns kPrimeRuns = [] {
    PrimeRuns runs;
    std::uint64_t product = 1;
    std::size_t begin = 0;
    for (std::size_t i = 0; i <= std::size(kSmallPrimes); ++i) {
        if (i == std::size(kSmallPrimes) ||
            product * kSmallPrimes[i] > 0xffffffffULL) {
            runs.run[runs.count++] = {static_cast<std::uint32_t>(product),
                                      begin, i};
            begin = i;
            product = 1;
        }
        if (i < std::size(kSmallPrimes))
            product *= kSmallPrimes[i];
    }
    return runs;
}();

using Word = std::uint64_t;
using DWord = unsigned __int128;

constexpr std::size_t kMaxWindowBits = 5;

/** Exponent window: the table costs 2^w - 2 products, each window w
 * squarings plus at most one product. */
std::size_t
windowBits(std::size_t expBits)
{
    return expBits > 512  ? kMaxWindowBits
           : expBits > 128 ? 4
           : expBits > 24  ? 3
           : expBits > 8   ? 2
                           : 1;
}

/** Words one exponentiation needs under a k-word modulus: the
 * accumulator, the largest window table and 2k product words. */
constexpr std::size_t
scratchWords(std::size_t k)
{
    return (1 + (std::size_t(1) << kMaxWindowBits) + 2) * k;
}

/**
 * Montgomery scratch: on the stack up to a
 * MontgomeryContext::kInlineWords-word modulus, one heap block above.
 */
class Scratch
{
  public:
    explicit Scratch(std::size_t k)
    {
        if (k > MontgomeryContext::kInlineWords) {
            heap = std::make_unique<Word[]>(scratchWords(k));
            ptr = heap.get();
        }
    }

    Word *get() { return ptr; }

  private:
    Word inlineWords[scratchWords(MontgomeryContext::kInlineWords)];
    std::unique_ptr<Word[]> heap;
    Word *ptr = inlineWords;
};

} // namespace

void
BigUint::trim()
{
    while (!limb.empty() && limb.back() == 0)
        limb.pop_back();
}

BigUint
BigUint::fromU64(std::uint64_t v)
{
    BigUint out;
    if (v & 0xffffffffULL)
        out.limb.push_back(static_cast<std::uint32_t>(v));
    else if (v >> 32)
        out.limb.push_back(0);
    if (v >> 32)
        out.limb.push_back(static_cast<std::uint32_t>(v >> 32));
    out.trim();
    return out;
}

BigUint
BigUint::fromBytes(const Bytes &be)
{
    BigUint out;
    out.limb.assign((be.size() + 3) / 4, 0);
    for (std::size_t i = 0; i < be.size(); ++i) {
        // Byte i counted from the end is bits [8*i, 8*i+8).
        const std::size_t fromEnd = be.size() - 1 - i;
        out.limb[fromEnd / 4] |=
            static_cast<std::uint32_t>(be[i]) << (8 * (fromEnd % 4));
    }
    out.trim();
    return out;
}

BigUint
BigUint::fromHexString(const std::string &hex)
{
    std::string padded = hex;
    if (padded.size() % 2 == 1)
        padded.insert(padded.begin(), '0');
    return fromBytes(fromHex(padded));
}

Bytes
BigUint::toBytes(std::size_t width) const
{
    const std::size_t minBytes = (bitLength() + 7) / 8;
    const std::size_t outSize = width == 0 ? std::max<std::size_t>(minBytes, 1)
                                           : width;
    if (width != 0 && minBytes > width)
        throw std::invalid_argument("BigUint::toBytes: width too small");

    Bytes out(outSize, 0);
    for (std::size_t i = 0; i < minBytes; ++i) {
        const std::uint32_t word = limb[i / 4];
        out[outSize - 1 - i] =
            static_cast<std::uint8_t>(word >> (8 * (i % 4)));
    }
    return out;
}

std::string
BigUint::toHexString() const
{
    if (isZero())
        return "0";
    std::string s = toHex(toBytes());
    const std::size_t firstNonZero = s.find_first_not_of('0');
    return s.substr(firstNonZero);
}

BigUint
BigUint::randomWithBits(std::size_t bits, Rng &rng)
{
    if (bits == 0)
        return BigUint();
    BigUint out;
    out.limb.assign((bits + 31) / 32, 0);
    for (auto &word : out.limb)
        word = static_cast<std::uint32_t>(rng.next());
    // Clear bits above the requested width, then force the MSB.
    const std::size_t topBit = (bits - 1) % 32;
    std::uint32_t &top = out.limb.back();
    if (topBit != 31)
        top &= (1u << (topBit + 1)) - 1;
    top |= 1u << topBit;
    out.trim();
    return out;
}

BigUint
BigUint::randomBelow(const BigUint &bound, Rng &rng)
{
    const BigUint two = fromU64(2);
    if (bound <= two)
        throw std::invalid_argument("randomBelow: bound too small");
    const std::size_t bits = bound.bitLength();
    for (;;) {
        BigUint candidate;
        candidate.limb.assign((bits + 31) / 32, 0);
        for (auto &word : candidate.limb)
            word = static_cast<std::uint32_t>(rng.next());
        const std::size_t topBit = (bits - 1) % 32;
        if (topBit != 31)
            candidate.limb.back() &= (1u << (topBit + 1)) - 1;
        candidate.trim();
        if (candidate >= two && candidate < bound)
            return candidate;
    }
}

std::size_t
BigUint::bitLength() const
{
    if (limb.empty())
        return 0;
    std::size_t bits = (limb.size() - 1) * 32;
    std::uint32_t top = limb.back();
    while (top) {
        ++bits;
        top >>= 1;
    }
    return bits;
}

bool
BigUint::bit(std::size_t i) const
{
    const std::size_t word = i / 32;
    if (word >= limb.size())
        return false;
    return (limb[word] >> (i % 32)) & 1;
}

int
BigUint::compare(const BigUint &a, const BigUint &b)
{
    if (a.limb.size() != b.limb.size())
        return a.limb.size() < b.limb.size() ? -1 : 1;
    for (std::size_t i = a.limb.size(); i-- > 0;) {
        if (a.limb[i] != b.limb[i])
            return a.limb[i] < b.limb[i] ? -1 : 1;
    }
    return 0;
}

BigUint
BigUint::operator+(const BigUint &o) const
{
    BigUint out;
    const std::size_t n = std::max(limb.size(), o.limb.size());
    out.limb.assign(n + 1, 0);
    std::uint64_t carry = 0;
    for (std::size_t i = 0; i < n; ++i) {
        std::uint64_t sum = carry;
        if (i < limb.size())
            sum += limb[i];
        if (i < o.limb.size())
            sum += o.limb[i];
        out.limb[i] = static_cast<std::uint32_t>(sum);
        carry = sum >> 32;
    }
    out.limb[n] = static_cast<std::uint32_t>(carry);
    out.trim();
    return out;
}

BigUint
BigUint::operator-(const BigUint &o) const
{
    if (*this < o)
        throw std::underflow_error("BigUint subtraction underflow");
    BigUint out;
    out.limb.assign(limb.size(), 0);
    std::int64_t borrow = 0;
    for (std::size_t i = 0; i < limb.size(); ++i) {
        std::int64_t diff = static_cast<std::int64_t>(limb[i]) - borrow;
        if (i < o.limb.size())
            diff -= o.limb[i];
        if (diff < 0) {
            diff += 1LL << 32;
            borrow = 1;
        } else {
            borrow = 0;
        }
        out.limb[i] = static_cast<std::uint32_t>(diff);
    }
    out.trim();
    return out;
}

BigUint
BigUint::operator*(const BigUint &o) const
{
    if (isZero() || o.isZero())
        return BigUint();
    BigUint out;
    out.limb.assign(limb.size() + o.limb.size(), 0);
    for (std::size_t i = 0; i < limb.size(); ++i) {
        std::uint64_t carry = 0;
        const std::uint64_t a = limb[i];
        for (std::size_t j = 0; j < o.limb.size(); ++j) {
            std::uint64_t cur = out.limb[i + j] + a * o.limb[j] + carry;
            out.limb[i + j] = static_cast<std::uint32_t>(cur);
            carry = cur >> 32;
        }
        std::size_t k = i + o.limb.size();
        while (carry) {
            std::uint64_t cur = out.limb[k] + carry;
            out.limb[k] = static_cast<std::uint32_t>(cur);
            carry = cur >> 32;
            ++k;
        }
    }
    out.trim();
    return out;
}

std::pair<BigUint, BigUint>
BigUint::divmod(const BigUint &num, const BigUint &den)
{
    if (den.isZero())
        throw std::domain_error("BigUint division by zero");
    if (num < den)
        return {BigUint(), num};
    if (den.limb.size() == 1) {
        // Fast single-limb path.
        const std::uint64_t d = den.limb[0];
        BigUint q;
        q.limb.assign(num.limb.size(), 0);
        std::uint64_t rem = 0;
        for (std::size_t i = num.limb.size(); i-- > 0;) {
            const std::uint64_t cur = (rem << 32) | num.limb[i];
            q.limb[i] = static_cast<std::uint32_t>(cur / d);
            rem = cur % d;
        }
        q.trim();
        return {q, fromU64(rem)};
    }

    // Knuth Algorithm D. Normalize so the divisor's top limb has its
    // high bit set.
    int shift = 0;
    std::uint32_t top = den.limb.back();
    while (!(top & 0x80000000u)) {
        top <<= 1;
        ++shift;
    }
    const BigUint u = num.shiftLeft(shift);
    const BigUint v = den.shiftLeft(shift);
    const std::size_t n = v.limb.size();
    const std::size_t m = u.limb.size() >= n ? u.limb.size() - n : 0;

    std::vector<std::uint32_t> un(u.limb);
    un.resize(u.limb.size() + 1, 0);
    const std::vector<std::uint32_t> &vn = v.limb;

    BigUint q;
    q.limb.assign(m + 1, 0);

    for (std::size_t j = m + 1; j-- > 0;) {
        const std::uint64_t numerator =
            (static_cast<std::uint64_t>(un[j + n]) << 32) | un[j + n - 1];
        std::uint64_t qhat = numerator / vn[n - 1];
        std::uint64_t rhat = numerator % vn[n - 1];

        while (qhat >= (1ULL << 32) ||
               qhat * vn[n - 2] > ((rhat << 32) | un[j + n - 2])) {
            --qhat;
            rhat += vn[n - 1];
            if (rhat >= (1ULL << 32))
                break;
        }

        // Multiply-and-subtract qhat * v from un[j .. j+n].
        std::int64_t borrow = 0;
        std::uint64_t carry = 0;
        for (std::size_t i = 0; i < n; ++i) {
            const std::uint64_t product = qhat * vn[i] + carry;
            carry = product >> 32;
            std::int64_t t = static_cast<std::int64_t>(un[i + j]) -
                             static_cast<std::int64_t>(product &
                                                       0xffffffffULL) -
                             borrow;
            if (t < 0) {
                t += 1LL << 32;
                borrow = 1;
            } else {
                borrow = 0;
            }
            un[i + j] = static_cast<std::uint32_t>(t);
        }
        std::int64_t t = static_cast<std::int64_t>(un[j + n]) -
                         static_cast<std::int64_t>(carry) - borrow;
        if (t < 0) {
            // qhat was one too large: add v back once.
            t += 1LL << 32;
            --qhat;
            std::uint64_t addCarry = 0;
            for (std::size_t i = 0; i < n; ++i) {
                const std::uint64_t sum =
                    static_cast<std::uint64_t>(un[i + j]) + vn[i] + addCarry;
                un[i + j] = static_cast<std::uint32_t>(sum);
                addCarry = sum >> 32;
            }
            t += static_cast<std::int64_t>(addCarry);
            t &= 0xffffffffLL;
        }
        un[j + n] = static_cast<std::uint32_t>(t);
        q.limb[j] = static_cast<std::uint32_t>(qhat);
    }
    q.trim();

    BigUint r;
    r.limb.assign(un.begin(), un.begin() + n);
    r.trim();
    return {q, r.shiftRight(shift)};
}

BigUint
BigUint::operator/(const BigUint &o) const
{
    return divmod(*this, o).first;
}

BigUint
BigUint::operator%(const BigUint &o) const
{
    return divmod(*this, o).second;
}

BigUint
BigUint::shiftLeft(std::size_t bits) const
{
    if (isZero() || bits == 0)
        return *this;
    const std::size_t words = bits / 32;
    const std::size_t rem = bits % 32;
    BigUint out;
    out.limb.assign(limb.size() + words + 1, 0);
    for (std::size_t i = 0; i < limb.size(); ++i) {
        out.limb[i + words] |= limb[i] << rem;
        if (rem)
            out.limb[i + words + 1] |=
                static_cast<std::uint32_t>(
                    static_cast<std::uint64_t>(limb[i]) >> (32 - rem));
    }
    out.trim();
    return out;
}

BigUint
BigUint::shiftRight(std::size_t bits) const
{
    const std::size_t words = bits / 32;
    const std::size_t rem = bits % 32;
    if (words >= limb.size())
        return BigUint();
    BigUint out;
    out.limb.assign(limb.size() - words, 0);
    for (std::size_t i = 0; i < out.limb.size(); ++i) {
        out.limb[i] = limb[i + words] >> rem;
        if (rem && i + words + 1 < limb.size())
            out.limb[i] |= static_cast<std::uint32_t>(
                static_cast<std::uint64_t>(limb[i + words + 1])
                << (32 - rem));
    }
    out.trim();
    return out;
}

namespace
{

ModExpEngine gModExpEngine = ModExpEngine::Montgomery;

/** One Miller-Rabin round for n = d * 2^s + 1 on the division ladder:
 * true when `a` proves n composite. */
bool
isWitnessLegacy(const BigUint &n, const BigUint &a, const BigUint &d,
                std::size_t s)
{
    const BigUint one = BigUint::fromU64(1);
    const BigUint nMinus1 = n - one;
    BigUint x = a.modExpLegacy(d, n);
    if (x == one || x == nMinus1)
        return false;
    for (std::size_t i = 0; i + 1 < s; ++i) {
        x = (x * x) % n;
        if (x == nMinus1)
            return false;
    }
    return true;
}

} // namespace

ModExpEngine
modExpEngine() noexcept
{
    return gModExpEngine;
}

void
setModExpEngine(ModExpEngine engine) noexcept
{
    gModExpEngine = engine;
}

BigUint
BigUint::modExp(const BigUint &exp, const BigUint &m) const
{
    if (m.isZero())
        throw std::domain_error("modExp: zero modulus");
    if (m == fromU64(1))
        return BigUint();
    if (!m.isOdd() || gModExpEngine == ModExpEngine::Legacy)
        return modExpLegacy(exp, m);
    return MontgomeryContext(m).modExp(*this, exp);
}

BigUint
BigUint::modExp(const BigUint &exp, const MontgomeryContext &ctx) const
{
    return ctx.modExp(*this, exp);
}

BigUint
BigUint::modExpLegacy(const BigUint &exp, const BigUint &m) const
{
    if (m.isZero())
        throw std::domain_error("modExp: zero modulus");
    const BigUint one = fromU64(1);
    if (m == one)
        return BigUint();

    BigUint result = one;
    BigUint base = *this % m;
    const std::size_t bits = exp.bitLength();
    for (std::size_t i = 0; i < bits; ++i) {
        if (exp.bit(i))
            result = (result * base) % m;
        base = (base * base) % m;
    }
    return result;
}

MontgomeryContext::MontgomeryContext(const BigUint &modulus) : m(modulus)
{
    if (m.isZero() || !m.isOdd())
        throw std::domain_error(
            "MontgomeryContext: modulus must be odd and nonzero");

    k = (m.limb.size() + 1) / 2;
    n.resize(k);
    load(m, n.data());

    // n' = -n^-1 mod 2^64 via Newton iteration: starting from x = n0
    // (correct mod 8 for odd n0), each step doubles the valid bits.
    const Word n0 = n[0];
    Word inv = n0;
    for (int i = 0; i < 5; ++i)
        inv *= 2 - n0 * inv;
    nPrime = Word{0} - inv;

    // R mod n and R^2 mod n, R = 2^(64k), via one shift and division.
    const BigUint rMod = BigUint::fromU64(1).shiftLeft(64 * k) % m;
    one.resize(k);
    load(rMod, one.data());
    rr.resize(k);
    load((rMod * rMod) % m, rr.data());
}

void
MontgomeryContext::load(const BigUint &value, Word *out) const
{
    std::fill(out, out + k, 0);
    for (std::size_t i = 0; i < value.limb.size(); ++i)
        out[i / 2] |= Word{value.limb[i]} << (32 * (i % 2));
}

namespace
{

// Word kernels over k-word little-endian operands; the caller owns
// every buffer and passes the modulus n and n' = -n^-1 mod 2^64.

/** out = (a - b) mod 2^(64k) over k words; out may alias a or b. */
void
subWords(const Word *a, const Word *b, std::size_t k, Word *out)
{
    Word borrow = 0;
    for (std::size_t i = 0; i < k; ++i) {
        const DWord diff = DWord{a[i]} - b[i] - borrow;
        out[i] = static_cast<Word>(diff);
        borrow = static_cast<Word>(diff >> 64) & 1;
    }
}

/** out = v - n when v + top * 2^(64k) >= n, else v; k words each. The
 * Montgomery products end here with a value below 2n. */
void
reduceOnce(const Word *v, Word top, const Word *n, std::size_t k, Word *out)
{
    bool geq = top != 0;
    if (!geq) {
        geq = true;
        for (std::size_t i = k; i-- > 0;) {
            if (v[i] != n[i]) {
                geq = v[i] > n[i];
                break;
            }
        }
    }
    if (geq)
        subWords(v, n, k, out);
    else
        std::copy(v, v + k, out);
}

/** out = t * R^-1 mod n for t < n * R held in 2k words (clobbered). */
void
redc(Word *t, const Word *n, Word nPrime, std::size_t k, Word *out)
{
    Word top = 0; // Carry into t[i + k] from the previous row.
    for (std::size_t i = 0; i < k; ++i) {
        const Word mFac = t[i] * nPrime;
        Word carry = 0;
        for (std::size_t j = 0; j < k; ++j) {
            const DWord cur = DWord{mFac} * n[j] + t[i + j] + carry;
            t[i + j] = static_cast<Word>(cur);
            carry = static_cast<Word>(cur >> 64);
        }
        const DWord cur = DWord{t[i + k]} + carry + top;
        t[i + k] = static_cast<Word>(cur);
        top = static_cast<Word>(cur >> 64);
    }
    reduceOnce(t + k, top, n, k, out);
}

/** out = a * b * R^-1 mod n (CIOS). a, b, out hold k words and out may
 * alias either input; t holds k + 1 words. */
void
montMul(const Word *a, const Word *b, const Word *n, Word nPrime,
        std::size_t k, Word *out, Word *t)
{
    // Fused CIOS: each row adds a[i] * b and mFac * n, with mFac chosen
    // so the low word cancels, and shifts down one word.
    std::fill(t, t + k + 1, 0);
    for (std::size_t i = 0; i < k; ++i) {
        const Word ai = a[i];
        DWord cur = DWord{ai} * b[0] + t[0];
        Word carry = static_cast<Word>(cur >> 64);
        const Word mFac = static_cast<Word>(cur) * nPrime;
        DWord red = DWord{mFac} * n[0] + static_cast<Word>(cur);
        Word redCarry = static_cast<Word>(red >> 64);
        for (std::size_t j = 1; j < k; ++j) {
            cur = DWord{ai} * b[j] + t[j] + carry;
            carry = static_cast<Word>(cur >> 64);
            red = DWord{mFac} * n[j] + static_cast<Word>(cur) + redCarry;
            redCarry = static_cast<Word>(red >> 64);
            t[j - 1] = static_cast<Word>(red);
        }
        cur = DWord{t[k]} + carry + redCarry;
        t[k - 1] = static_cast<Word>(cur);
        t[k] = static_cast<Word>(cur >> 64);
    }
    reduceOnce(t, t[k], n, k, out);
}

/** out = a * a * R^-1 mod n. out may alias a; t holds 2k words. */
void
montSqr(const Word *a, const Word *n, Word nPrime, std::size_t k, Word *out,
        Word *t)
{
    // Each cross product a[i] * a[j], i < j, once...
    std::fill(t, t + 2 * k, 0);
    for (std::size_t i = 0; i + 1 < k; ++i) {
        const Word ai = a[i];
        Word carry = 0;
        for (std::size_t j = i + 1; j < k; ++j) {
            const DWord cur = DWord{ai} * a[j] + t[i + j] + carry;
            t[i + j] = static_cast<Word>(cur);
            carry = static_cast<Word>(cur >> 64);
        }
        t[i + k] = carry;
    }
    // ...then doubled, plus the squares on the diagonal.
    Word shifted = 0;
    for (std::size_t i = 0; i < 2 * k; ++i) {
        const Word word = t[i];
        t[i] = (word << 1) | shifted;
        shifted = word >> 63;
    }
    Word carry = 0;
    for (std::size_t i = 0; i < k; ++i) {
        const DWord square = DWord{a[i]} * a[i];
        DWord cur = DWord{t[2 * i]} + static_cast<Word>(square) + carry;
        t[2 * i] = static_cast<Word>(cur);
        cur = DWord{t[2 * i + 1]} + static_cast<Word>(square >> 64) +
              static_cast<Word>(cur >> 64);
        t[2 * i + 1] = static_cast<Word>(cur);
        carry = static_cast<Word>(cur >> 64);
    }
    redc(t, n, nPrime, k, out);
}

} // namespace

void
MontgomeryContext::powMont(const BigUint &base, const BigUint &exp,
                           Word *out, Word *scratch) const
{
    const std::size_t bits = exp.bitLength();
    const std::size_t w = windowBits(bits);
    const std::size_t entries = std::size_t(1) << w;
    Word *table = scratch; // entries * k words: base^i in Montgomery form
    Word *t = scratch + entries * k;

    Word *x = table + k;
    if (base < m)
        load(base, x);
    else
        load(base % m, x);
    montMul(x, rr.data(), n.data(), nPrime, k, x, t);
    std::copy(one.begin(), one.end(), table);
    for (std::size_t i = 2; i < entries; ++i)
        montMul(table + (i - 1) * k, x, n.data(), nPrime, k, table + i * k, t);

    const std::size_t chunks = (bits + w - 1) / w;
    for (std::size_t c = chunks; c-- > 0;) {
        std::size_t digit = 0;
        for (std::size_t b = 0; b < w; ++b) {
            if (exp.bit(c * w + b))
                digit |= std::size_t(1) << b;
        }
        if (c + 1 == chunks) {
            std::copy(table + digit * k, table + (digit + 1) * k, out);
            continue;
        }
        for (std::size_t s = 0; s < w; ++s)
            montSqr(out, n.data(), nPrime, k, out, t);
        if (digit != 0)
            montMul(out, table + digit * k, n.data(), nPrime, k, out, t);
    }
}

BigUint
MontgomeryContext::fromMont(Word *a, Word *t) const
{
    std::copy(a, a + k, t);
    std::fill(t + k, t + 2 * k, 0);
    redc(t, n.data(), nPrime, k, a);
    BigUint out;
    out.limb.resize(2 * k);
    for (std::size_t i = 0; i < k; ++i) {
        out.limb[2 * i] = static_cast<std::uint32_t>(a[i]);
        out.limb[2 * i + 1] = static_cast<std::uint32_t>(a[i] >> 32);
    }
    out.trim();
    return out;
}

BigUint
MontgomeryContext::modExp(const BigUint &base, const BigUint &exp) const
{
    if (k == 1 && n[0] == 1)
        return BigUint();
    if (exp.isZero())
        return BigUint::fromU64(1);

    Scratch scratch(k);
    Word *acc = scratch.get();
    powMont(base, exp, acc, acc + k);
    return fromMont(acc, acc + k);
}

bool
MontgomeryContext::isWitness(const BigUint &a, const BigUint &d,
                             std::size_t s) const
{
    Scratch scratch(k);
    Word *x = scratch.get();
    Word *minusOne = x + k; // reuses the window table once powMont is done
    Word *t = minusOne + k;

    powMont(a, d, x, minusOne);
    subWords(n.data(), one.data(), k, minusOne); // -1 is n - R mod n
    const auto equals = [&](const Word *y) { return std::equal(x, x + k, y); };
    if (equals(one.data()) || equals(minusOne))
        return false;
    for (std::size_t i = 0; i + 1 < s; ++i) {
        montSqr(x, n.data(), nPrime, k, x, t);
        if (equals(minusOne))
            return false;
    }
    return true;
}

BigUint
BigUint::gcd(BigUint a, BigUint b)
{
    while (!b.isZero()) {
        BigUint r = a % b;
        a = b;
        b = r;
    }
    return a;
}

BigUint
BigUint::modInverse(const BigUint &m) const
{
    // Extended Euclid on (m, a) tracking only the coefficient of a,
    // with signs managed explicitly since BigUint is unsigned.
    BigUint r0 = m, r1 = *this % m;
    BigUint t0 = BigUint(), t1 = fromU64(1);
    bool t0Neg = false, t1Neg = false;

    while (!r1.isZero()) {
        auto [q, r2] = divmod(r0, r1);
        // t2 = t0 - q * t1 with sign tracking.
        const BigUint qt1 = q * t1;
        BigUint t2;
        bool t2Neg;
        if (t0Neg == t1Neg) {
            // Same sign: t0 - q*t1 may flip sign.
            if (t0 >= qt1) {
                t2 = t0 - qt1;
                t2Neg = t0Neg;
            } else {
                t2 = qt1 - t0;
                t2Neg = !t0Neg;
            }
        } else {
            // Opposite signs: magnitudes add, sign follows t0.
            t2 = t0 + qt1;
            t2Neg = t0Neg;
        }
        r0 = r1;
        r1 = r2;
        t0 = t1;
        t0Neg = t1Neg;
        t1 = t2;
        t1Neg = t2Neg;
    }

    if (r0 != fromU64(1))
        throw std::domain_error("modInverse: not invertible");
    if (t0Neg)
        return m - (t0 % m);
    return t0 % m;
}

bool
BigUint::isProbablePrime(Rng &rng, int rounds) const
{
    if (bitLength() <= 2)
        return bitLength() == 2; // 2 and 3
    if (!isOdd())
        return false;

    // Trial division: one word remainder over the limbs per run of
    // small primes, then one per prime.
    for (std::size_t r = 0; r < kPrimeRuns.count; ++r) {
        const PrimeRun &run = kPrimeRuns.run[r];
        std::uint64_t rem = 0;
        for (std::size_t i = limb.size(); i-- > 0;)
            rem = ((rem << 32) | limb[i]) % run.product;
        for (std::size_t j = run.begin; j < run.end; ++j) {
            if (rem % kSmallPrimes[j] == 0)
                return limb.size() == 1 && limb[0] == kSmallPrimes[j];
        }
    }

    // Write n-1 = d * 2^s with d odd.
    const BigUint nMinus1 = *this - fromU64(1);
    BigUint d = nMinus1;
    std::size_t s = 0;
    while (!d.isOdd()) {
        d = d.shiftRight(1);
        ++s;
    }

    // One context serves every round; the bases are drawn exactly as
    // the legacy engine draws them.
    std::optional<MontgomeryContext> ctx;
    if (gModExpEngine == ModExpEngine::Montgomery)
        ctx.emplace(*this);
    for (int round = 0; round < rounds; ++round) {
        const BigUint a = randomBelow(nMinus1, rng);
        if (ctx ? ctx->isWitness(a, d, s) : isWitnessLegacy(*this, a, d, s))
            return false;
    }
    return true;
}

BigUint
BigUint::generatePrime(std::size_t bits, Rng &rng)
{
    if (bits < 8)
        throw std::invalid_argument("generatePrime: too few bits");
    for (;;) {
        BigUint candidate = randomWithBits(bits, rng);
        if (!candidate.isOdd())
            candidate = candidate + fromU64(1);
        if (candidate.bitLength() != bits)
            continue;
        if (candidate.isProbablePrime(rng))
            return candidate;
    }
}

} // namespace monatt::crypto
