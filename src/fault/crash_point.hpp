/**
 * @file
 * Crash-point hooks: deterministic simulated process death for the
 * crash-resume test harness.
 *
 * Durability code (driver loop, journal writer, snapshot writer) calls
 * CrashPoints::hit("name") at the instants where a real crash would be
 * most damaging. In production nothing is armed and the call is a
 * single relaxed-load branch. Tests arm exactly one point with a
 * countdown; when the countdown expires the process "dies" — either by
 * throwing SimulatedCrash (in-process tests catch it at the run()
 * boundary) or by std::_Exit (CI kill-mid-run smoke test: a genuine
 * no-destructor, no-flush death).
 *
 * Lives in the fault layer beside the fault injector: both exist to
 * make failure deterministic enough to test against.
 */

#ifndef QISMET_FAULT_CRASH_POINT_HPP
#define QISMET_FAULT_CRASH_POINT_HPP

#include <stdexcept>
#include <string>

namespace qismet {

/** Well-known crash-point names used by the durability layer. */
inline constexpr const char *kCrashIterationBoundary =
    "driver:iteration-boundary";
inline constexpr const char *kCrashJournalTornWrite =
    "journal:torn-write";
inline constexpr const char *kCrashBeforeSnapshot =
    "snapshot:before-write";
inline constexpr const char *kCrashSnapshotTornWrite =
    "snapshot:torn-write";
inline constexpr const char *kCrashServeJobBoundary =
    "serve:job-boundary";

/** Thrown by an armed crash point in Action::Throw mode. */
class SimulatedCrash : public std::runtime_error
{
  public:
    explicit SimulatedCrash(const std::string &point)
        : std::runtime_error("simulated crash at " + point),
          point_(point)
    {
    }

    const std::string &point() const { return point_; }

  private:
    std::string point_;
};

/**
 * Process-wide crash-point registry. At most one point is armed at a
 * time (tests are sequential); arming is not thread-safe but hit() is
 * safe to call from any thread when nothing is armed.
 */
class CrashPoints
{
  public:
    enum class Action
    {
        Throw, ///< throw SimulatedCrash (in-process harness)
        Exit,  ///< std::_Exit(kCrashExitCode) — real process death
    };

    /** Exit status used by Action::Exit, checked by the CI smoke test. */
    static constexpr int kCrashExitCode = 43;

    /**
     * Arm `point` to fire on its `countdown`-th hit (1 = next hit).
     * Replaces any previously armed point.
     */
    static void arm(const std::string &point, int countdown,
                    Action action = Action::Throw);

    /** Disarm whatever is armed (no-op when nothing is). */
    static void disarm();

    /** True when any point is armed. */
    static bool armed();

    /**
     * Countdown-and-check without dying: returns true when this call
     * expired the armed countdown for `point`. The caller is expected
     * to finish its "torn" side effect and then call crash().
     */
    static bool fires(const char *point);

    /** Die according to the armed action (Throw by default). */
    [[noreturn]] static void crash(const char *point);

    /** fires() + crash() — the common single-call form. */
    static void hit(const char *point)
    {
        if (fires(point))
            crash(point);
    }
};

/** RAII: disarm on scope exit so a failing test cannot leak an armed point. */
class CrashPointGuard
{
  public:
    CrashPointGuard(const std::string &point, int countdown,
                    CrashPoints::Action action = CrashPoints::Action::Throw)
    {
        CrashPoints::arm(point, countdown, action);
    }
    ~CrashPointGuard() { CrashPoints::disarm(); }

    CrashPointGuard(const CrashPointGuard &) = delete;
    CrashPointGuard &operator=(const CrashPointGuard &) = delete;
};

} // namespace qismet

#endif // QISMET_FAULT_CRASH_POINT_HPP
