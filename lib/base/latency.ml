type t = {
  l1_hit : int;
  local_hit : int;
  remote_transfer : int;
  mem_access : int;
  upgrade_local : int;
  atomic_extra : int;
  interconnect_occupancy : int;
  interconnect_channels : int;
}

let t5440 =
  {
    l1_hit = 3;
    local_hit = 20;
    remote_transfer = 125;
    mem_access = 165;
    upgrade_local = 24;
    atomic_extra = 10;
    interconnect_occupancy = 60;
    interconnect_channels = 2;
  }

let two_socket_x86 =
  {
    l1_hit = 2;
    local_hit = 12;
    remote_transfer = 50;
    mem_access = 80;
    upgrade_local = 15;
    atomic_extra = 8;
    interconnect_occupancy = 12;
    interconnect_channels = 2;
  }

let uniform =
  {
    l1_hit = 3;
    local_hit = 20;
    remote_transfer = 20;
    mem_access = 60;
    upgrade_local = 20;
    atomic_extra = 10;
    interconnect_occupancy = 0;
    interconnect_channels = 1;
  }
