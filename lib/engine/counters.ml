type t = {
  mutable announcements : int;
  mutable withdrawals : int;
  mutable mrai_deferrals : int;
  mutable lost_to_resets : int;
}

let make () =
  { announcements = 0; withdrawals = 0; mrai_deferrals = 0; lost_to_resets = 0 }

let snapshot c =
  {
    announcements = c.announcements;
    withdrawals = c.withdrawals;
    mrai_deferrals = c.mrai_deferrals;
    lost_to_resets = c.lost_to_resets;
  }

let messages c = c.announcements + c.withdrawals

let non_negative c =
  c.announcements >= 0 && c.withdrawals >= 0 && c.mrai_deferrals >= 0
  && c.lost_to_resets >= 0

let pp ppf c =
  Format.fprintf ppf "ann=%d wd=%d mrai-deferred=%d lost=%d" c.announcements
    c.withdrawals c.mrai_deferrals c.lost_to_resets
