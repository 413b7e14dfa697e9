// Engine-shared mechanics for executing strands and wiring forks/joins.
//
// Both engines (the real thread pool and the PMH simulator) drive the same
// sequence for every strand, so the fork/join bookkeeping lives here:
//
//   Job* j = sched.get(tid);                 // timed as "get"
//   Strand s(tid, P);
//   j->execute(s);                           // timed as "active"
//   bool completed = !s.forked();
//   sched.done(j, tid, completed);           // timed as "done"
//   StrandOps::settle(j, s, to_add, root_completed);
//   for (Job* a : to_add) sched.add(a, tid); // timed as "add"
//   (settle deleted j, its task if completed, and any spent JoinCounter)
//
// settle() performs, per paper §3.1: on a fork, creation of the join counter
// and of one fresh Task per child; on a strand end, join-counter notification
// releasing the continuation strand of the enclosing task.
//
// Every new/delete below goes through the calling worker's JobArena (the
// types are ArenaBacked — see job_arena.h), so fork/join bookkeeping does
// not touch the global heap on the hot path. A job may be freed by a
// different worker than the one that allocated it (stolen continuations);
// the arena's remote free list handles that.
#pragma once

#include <vector>

#include "runtime/job.h"

namespace sbs::runtime {

class StrandOps {
 public:
  /// Prepare a job to serve as the computation root. Returns the sentinel
  /// counter whose trigger marks the end of the whole computation; the
  /// caller owns the sentinel and frees it after the run (the root Task,
  /// like every task, is freed by settle() when it completes).
  struct Root {
    Task* task;
    JoinCounter* sentinel;
  };
  static Root make_root(Job* root_job) {
    Task* task = new Task(nullptr);
    auto* sentinel = new JoinCounter(1, nullptr);
    root_job->task_ = task;
    root_job->on_complete_ = sentinel;
    root_job->starts_task_ = true;
    return {task, sentinel};
  }

  /// Post-execution bookkeeping. Appends to `to_add` the jobs the engine
  /// must pass to Scheduler::add (fork children, or a released continuation).
  /// Sets `root_completed` when the sentinel counter triggers. Deletes the
  /// job, and — when its task completed — the Task.
  static void settle(Job* job, Strand& strand, std::vector<Job*>& to_add,
                     bool& root_completed) {
    root_completed = false;
    if (strand.forked()) {
      Task* task = job->task_;
      Job* cont = strand.continuation();
      auto* jc = new JoinCounter(static_cast<int>(strand.children().size()),
                                 cont);
      // The continuation is the next strand of the same task.
      cont->task_ = task;
      cont->on_complete_ = job->on_complete_;
      cont->starts_task_ = false;
      for (Job* child : strand.children()) {
        child->task_ = new Task(task);
        child->on_complete_ = jc;
        child->starts_task_ = true;
        to_add.push_back(child);
      }
    } else {
      // Strand ended: its task is complete. Notify the enclosing join.
      JoinCounter* jc = job->on_complete_;
      Task* task = job->task_;
      SBS_ASSERT(jc != nullptr);
      // acq_rel: release publishes this strand's writes to whoever takes
      // the counter to zero; acquire makes the last decrementer see every
      // sibling's writes before running/deleting the continuation.
      if (jc->remaining.fetch_sub(1, std::memory_order_acq_rel) == 1) {
        if (jc->continuation != nullptr) {
          to_add.push_back(jc->continuation);
          delete jc;
        } else {
          root_completed = true;  // sentinel is freed by the engine
        }
      }
      delete task;
    }
    delete job;
  }

  /// Number of strands a fork will hand to the scheduler (children now, the
  /// continuation later) — used by engines for accounting only.
  static std::size_t fork_width(Strand& strand) {
    return strand.forked() ? strand.children().size() + 1 : 0;
  }
};

}  // namespace sbs::runtime
