(* Outputs the benchmark checks, printed by [perfbench.exe --pins]. *)

let fleet_digests =
  [|
    "13dbbe4d1840fd92";
    "c6f2acdb10b8bd09";
    "ec51c4b83cdf5ed0";
    "6be1176b1ec3e24e";
    "f3ba29313dcc3787";
    "c8dd69ee799dba65";
    "6175b7913894e31b";
    "5909f571e7998366";
    "7f58764ea2785c2b";
    "b64a00a4e3572013";
    "384b37be3fff9d27";
    "fd872f139abee6c4";
    "82f957a445e5502a";
    "9651f7479716d9fa";
    "f0adf83df5fe5667";
    "22cdc925f8dfa143";
    "04eddb5b5409c2e9";
    "1a5d1372e8bc8619";
    "b176c83f3f39cd58";
    "966a2aa1dd6928ee";
    "dc08896e38a5d978";
    "cbfc0b8bf5c1de37";
    "feea92a94671e1e3";
    "a638535506b3c52c";
    "1b1058e3584bd59f";
    "dad539bb744a7391";
    "80858190a92edc4f";
    "fc03e4a9795b9bcb";
    "3ddd1bebcdc3ef83";
    "25205cb820a70810";
    "acf51e1a294351c6";
    "f3bff6c77958baa2";
    "0b78d40dd78ed10e";
    "89f2b2fc74859f47";
    "d94887cd04670c15";
    "d119a16959b7a45d";
    "e96e120ab6a777b6";
    "ab892e7c10e08f9d";
    "5564902c5c711040";
    "a1bd8be8f1a13053";
  |]

let chaos_blocks =
  [|
    "b4bb6c6041a5fb6d";
    "97ff5588d2e42809";
    "3615191903fcba6f";
    "2593abf873084cf7";
    "d2faa39f18c62158";
    "be636e67e7a5575a";
    "85873bd69e701040";
    "eb0f6cfd893089c7";
    "ca6327dea274175e";
    "7e5109948823b624";
    "8898d4cecc8b5d4e";
    "9702fa56051f4bc4";
    "b546e6e20a42de78";
    "09a0ec9e5332982c";
    "ffac6d900f9a85a8";
    "05fe93f34ec56896";
    "3a741127998a416f";
    "43deff5af16de56f";
    "f7f83794b4f81eb1";
    "ccba5742ad72dc2f";
    "f2ee6502b6337ed6";
    "65a7aa9e914ab6d5";
    "4a5dff98b6dfa022";
    "ac4d149cfd5cb640";
    "b606602a62c536cd";
    "a69941c9a5854b6a";
    "72be12c6eed97297";
    "13793e1b1acd9b12";
    "0200c75ddecd10da";
    "fa185c456cec6bb4";
    "ae96e0c1f285f5f6";
    "9810695d41f2fca1";
    "c84ec5db8a436d39";
    "faaaa39103486515";
    "224f3bb844c47596";
    "4eca8b9afd505bbc";
    "56fbb93f72c108f6";
    "5559bd2a955c4dbf";
    "beb939e003605742";
    "850d21a93f44a70b";
  |]

let explore_counts =
  [|
    (326465, 88512);
    (244407, 103552);
    (15327, 811);
  |]

let explore_digests =
  [|
    [| 0x8200c340; 0xbcf780a0; 0x6e598e60; 0xbce66e60 |];
    [| 0x62c65a91; 0x4ba5b828; 0xb7cdcc27; 0x21c9f70e |];
    [| 0x60caf084; 0x034acd30; 0xc2e3f416; 0x319c8ba7 |];
  |]

let pipeline_seeds =
  [|
    (31, 927045);
    (3, 923886);
    (4, 933556);
    (5, 937776);
    (6, 927511);
    (7, 928009);
    (8, 919180);
    (11, 927166);
    (13, 927005);
    (15, 925350);
    (17, 935972);
    (18, 933980);
    (20, 918039);
  |]
