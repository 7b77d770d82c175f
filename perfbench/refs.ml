(* Seed-commit references: the links a correct program produces for
   each corpus seed (0 to Inputs.corpora - 1), recorded at the commit
   that introduced this benchmark with [main.exe --reference N]. [cold]
   is the cold integration of every source; [delta] the cold rebuild of
   the delta workload's final source set. *)

let r digest links fks per_kind = { Inputs.digest; links; fks; per_kind }

let cold_table =
  [
    (0, r "8dc67ad9f2c5dc56019c9297cb724a57" 14824 38 [ ("xref", 2050); ("seq", 4690); ("text", 406); ("shared-term", 4231); ("mention", 3016); ("duplicate", 431) ]);
    (1, r "053d69f6ad3f3c4058074ad3c2e2f664" 14313 38 [ ("xref", 2045); ("seq", 4800); ("text", 392); ("shared-term", 3642); ("mention", 3015); ("duplicate", 419) ]);
    (2, r "67e08ce9358e2d83c1cb4087cc6895e7" 14393 38 [ ("xref", 2135); ("seq", 4397); ("text", 396); ("shared-term", 4010); ("mention", 2995); ("duplicate", 460) ]);
    (3, r "a569af10cba421619d83459988348c52" 14804 38 [ ("xref", 2035); ("seq", 4635); ("text", 392); ("shared-term", 4347); ("mention", 2959); ("duplicate", 436) ]);
    (4, r "2907b4c45f9800a8a467d996778127f7" 14038 38 [ ("xref", 2026); ("seq", 4563); ("text", 402); ("shared-term", 3724); ("mention", 2904); ("duplicate", 419) ]);
    (5, r "b6b45fcee091c3ee0210dc2f218f84ca" 14467 38 [ ("xref", 2032); ("seq", 4538); ("text", 380); ("shared-term", 4026); ("mention", 3051); ("duplicate", 440) ]);
    (6, r "e42e6634653e84abfab8d0a9c5c0916b" 14045 38 [ ("xref", 2105); ("seq", 4399); ("text", 440); ("shared-term", 3650); ("mention", 3001); ("duplicate", 450) ]);
    (7, r "9676982f811d810dcb3c27e75a409af3" 14961 38 [ ("xref", 2055); ("seq", 4537); ("text", 424); ("shared-term", 4471); ("mention", 3026); ("duplicate", 448) ]);
    (8, r "2854df0a15c00cb3837ae80c2804416c" 14381 38 [ ("xref", 1909); ("seq", 4547); ("text", 402); ("shared-term", 4051); ("mention", 3047); ("duplicate", 425) ]);
    (9, r "5eeca28385185cca0e2e695bbd0d6310" 14447 38 [ ("xref", 2073); ("seq", 4372); ("text", 421); ("shared-term", 4142); ("mention", 3026); ("duplicate", 413) ]);
    (10, r "bbea4953f659c747dc446bac813738ee" 14667 38 [ ("xref", 2076); ("seq", 4606); ("text", 401); ("shared-term", 4126); ("mention", 3013); ("duplicate", 445) ]);
    (11, r "88518cb85c89c2d276c3682367db24d7" 14267 38 [ ("xref", 2022); ("seq", 4772); ("text", 383); ("shared-term", 3717); ("mention", 2932); ("duplicate", 441) ]);
    (12, r "9156be8cee4e172d40ab6587d4d52bf2" 14173 38 [ ("xref", 2065); ("seq", 4511); ("text", 389); ("shared-term", 3814); ("mention", 2961); ("duplicate", 433) ]);
    (13, r "58e97eb8ed226bc749267e79b3661a86" 14812 38 [ ("xref", 2093); ("seq", 4538); ("text", 388); ("shared-term", 4361); ("mention", 3004); ("duplicate", 428) ]);
    (14, r "cde440c1db643a3227791268cd40d717" 14193 38 [ ("xref", 2023); ("seq", 4478); ("text", 397); ("shared-term", 3836); ("mention", 3000); ("duplicate", 459) ]);
    (15, r "41a1f5ba8c3351bb0de539c2b03ba226" 14318 38 [ ("xref", 1950); ("seq", 4475); ("text", 436); ("shared-term", 3984); ("mention", 3048); ("duplicate", 425) ]);
    (16, r "dac8b7bae1612890d40e8ee67d1dc50d" 14193 38 [ ("xref", 2057); ("seq", 4368); ("text", 395); ("shared-term", 3891); ("mention", 3063); ("duplicate", 419) ]);
    (17, r "28da32cce6768c6a1a9d8468cb192ca3" 14434 38 [ ("xref", 2015); ("seq", 4484); ("text", 416); ("shared-term", 4002); ("mention", 3094); ("duplicate", 423) ]);
    (18, r "22b3f94131b719b53088c8e2e054bb87" 14573 38 [ ("xref", 1972); ("seq", 4679); ("text", 405); ("shared-term", 4085); ("mention", 2998); ("duplicate", 434) ]);
    (19, r "8e0057525247e0f3a72d34361e2ed652" 14534 38 [ ("xref", 2019); ("seq", 4694); ("text", 410); ("shared-term", 3900); ("mention", 3049); ("duplicate", 462) ]);
    (20, r "726e6e0332f1d754dd19d40cac03b42b" 14458 38 [ ("xref", 2033); ("seq", 4558); ("text", 401); ("shared-term", 4007); ("mention", 3017); ("duplicate", 442) ]);
    (21, r "e3b783e3c270b79df4f5935fa581516f" 14430 38 [ ("xref", 2008); ("seq", 4553); ("text", 421); ("shared-term", 3986); ("mention", 3007); ("duplicate", 455) ]);
    (22, r "3dc9a73d79c418c12e0b04eeaf6274e7" 14243 38 [ ("xref", 2018); ("seq", 4702); ("text", 404); ("shared-term", 3711); ("mention", 2993); ("duplicate", 415) ]);
    (23, r "ad59c2ff6f7e2f2153e894ac3af27744" 14284 38 [ ("xref", 1998); ("seq", 4495); ("text", 400); ("shared-term", 3975); ("mention", 2986); ("duplicate", 430) ]);
    (24, r "d1cb17d1bfb2220f52af4cd537f152f2" 14560 38 [ ("xref", 1932); ("seq", 4646); ("text", 403); ("shared-term", 4219); ("mention", 2916); ("duplicate", 444) ]);
    (25, r "acc5019f5c84e36ab33e6125915d1836" 14145 38 [ ("xref", 1991); ("seq", 4522); ("text", 397); ("shared-term", 3825); ("mention", 2979); ("duplicate", 431) ]);
    (26, r "131608d4202cf61920b5415112a487c4" 14174 38 [ ("xref", 2037); ("seq", 4492); ("text", 397); ("shared-term", 3755); ("mention", 3092); ("duplicate", 401) ]);
    (27, r "195a3ecf4c94fb1ea851adaec0ea3307" 14368 38 [ ("xref", 1976); ("seq", 4458); ("text", 413); ("shared-term", 4088); ("mention", 2999); ("duplicate", 434) ]);
    (28, r "683ff6b4571e2fd8d846bd00ca26d580" 14581 38 [ ("xref", 1977); ("seq", 4592); ("text", 397); ("shared-term", 4084); ("mention", 3052); ("duplicate", 479) ]);
    (29, r "66cf51f427d3c817bdc4acea5e7fedec" 14498 38 [ ("xref", 2033); ("seq", 4488); ("text", 411); ("shared-term", 4193); ("mention", 2937); ("duplicate", 436) ]);
    (30, r "d29a861cdd481b621bd1eafb15e34e35" 14080 38 [ ("xref", 2013); ("seq", 4563); ("text", 408); ("shared-term", 3694); ("mention", 2932); ("duplicate", 470) ]);
    (31, r "2ecbb4843108a302b32dbb2900ad0bf1" 14407 38 [ ("xref", 1985); ("seq", 4389); ("text", 387); ("shared-term", 4197); ("mention", 3008); ("duplicate", 441) ]);
    (32, r "d44435c7ba8e07963f24a79d3db95285" 14750 38 [ ("xref", 2033); ("seq", 4651); ("text", 403); ("shared-term", 4194); ("mention", 3034); ("duplicate", 435) ]);
    (33, r "b2b5d9e88e094f802f6ade3f547d96ce" 15086 38 [ ("xref", 2088); ("seq", 4735); ("text", 414); ("shared-term", 4439); ("mention", 2976); ("duplicate", 434) ]);
    (34, r "25a037a1c844a3cbb5a5cdfaca464876" 14375 38 [ ("xref", 2052); ("seq", 4641); ("text", 387); ("shared-term", 3857); ("mention", 2996); ("duplicate", 442) ]);
    (35, r "08c29f56c6c2f1e415d483e45085d137" 14147 38 [ ("xref", 1988); ("seq", 4550); ("text", 391); ("shared-term", 3958); ("mention", 2862); ("duplicate", 398) ]);
    (36, r "9ed98e13fdc9cc68b5f3c1c1166c0b48" 14302 38 [ ("xref", 2033); ("seq", 4583); ("text", 394); ("shared-term", 3913); ("mention", 2941); ("duplicate", 438) ]);
    (37, r "adce34dbd0d696bdaa3450c721427176" 14525 38 [ ("xref", 1958); ("seq", 4658); ("text", 401); ("shared-term", 4029); ("mention", 3026); ("duplicate", 453) ]);
    (38, r "e8e6cb30f32538c0950da9c92dcd93ce" 14908 38 [ ("xref", 2062); ("seq", 4550); ("text", 415); ("shared-term", 4399); ("mention", 3030); ("duplicate", 452) ]);
    (39, r "c559704a4f014dd875189eff24eae7ba" 14538 38 [ ("xref", 2004); ("seq", 4721); ("text", 398); ("shared-term", 3973); ("mention", 3006); ("duplicate", 436) ]);
    (40, r "850eb300036f809221289821126c1314" 14423 38 [ ("xref", 1967); ("seq", 4516); ("text", 411); ("shared-term", 4100); ("mention", 2976); ("duplicate", 453) ]);
    (41, r "9a84b975d75da52b9d562eb6cc7d96a1" 14237 38 [ ("xref", 2040); ("seq", 4432); ("text", 415); ("shared-term", 3903); ("mention", 2995); ("duplicate", 452) ]);
    (42, r "0df654c4c63476254c7a16187489cd7f" 14776 38 [ ("xref", 2030); ("seq", 4529); ("text", 420); ("shared-term", 4364); ("mention", 2984); ("duplicate", 449) ]);
    (43, r "445345d4075a7e1af5eacf02913e1f11" 14421 38 [ ("xref", 2032); ("seq", 4589); ("text", 382); ("shared-term", 3852); ("mention", 3092); ("duplicate", 474) ]);
    (44, r "217c6f99359b8e734630d0d5fef2d347" 14320 38 [ ("xref", 2043); ("seq", 4567); ("text", 388); ("shared-term", 3888); ("mention", 3011); ("duplicate", 423) ]);
    (45, r "354f9a8fd7ad38a56bc22240b7aa9043" 14542 38 [ ("xref", 2085); ("seq", 4582); ("text", 419); ("shared-term", 3995); ("mention", 2992); ("duplicate", 469) ]);
    (46, r "76bfc275fe3bb3a9384c96e435259d7b" 14482 38 [ ("xref", 1976); ("seq", 4473); ("text", 399); ("shared-term", 4193); ("mention", 3019); ("duplicate", 422) ]);
    (47, r "a80f40bb9971dfc4eccedb2e64fb604c" 14467 38 [ ("xref", 2067); ("seq", 4512); ("text", 395); ("shared-term", 4079); ("mention", 2986); ("duplicate", 428) ]);
    (48, r "682d39e933e7ace4a69acb9be6fdaf73" 14493 38 [ ("xref", 1950); ("seq", 4513); ("text", 411); ("shared-term", 4205); ("mention", 3009); ("duplicate", 405) ]);
    (49, r "05b7c0412266de3f87bec225644af6c5" 14810 38 [ ("xref", 2098); ("seq", 4525); ("text", 388); ("shared-term", 4338); ("mention", 3049); ("duplicate", 412) ]);
    (50, r "09399d92a3d7aeed8bfc282ce43a2677" 15068 38 [ ("xref", 2059); ("seq", 4520); ("text", 401); ("shared-term", 4598); ("mention", 3050); ("duplicate", 440) ]);
    (51, r "13952d314626456cc02ea422cdb4252a" 14648 38 [ ("xref", 2046); ("seq", 4611); ("text", 404); ("shared-term", 4190); ("mention", 2945); ("duplicate", 452) ]);
    (52, r "a763fb5bf6534510f8316b2742d646c2" 14057 38 [ ("xref", 2003); ("seq", 4380); ("text", 384); ("shared-term", 4015); ("mention", 2851); ("duplicate", 424) ]);
    (53, r "9e5d238fa93320312378e0e14e76e094" 14142 38 [ ("xref", 2029); ("seq", 4702); ("text", 428); ("shared-term", 3578); ("mention", 2973); ("duplicate", 432) ]);
    (54, r "8c4c3fea19f2155eb4c1a52939c778fa" 14273 38 [ ("xref", 2077); ("seq", 4391); ("text", 441); ("shared-term", 3831); ("mention", 3054); ("duplicate", 479) ]);
    (55, r "1c30b92bd8fb096f3add4af33f081ee9" 14875 38 [ ("xref", 2044); ("seq", 4428); ("text", 425); ("shared-term", 4486); ("mention", 3043); ("duplicate", 449) ]);
    (56, r "d990a9493b87a9f811b3a3cd4750d770" 14643 38 [ ("xref", 2097); ("seq", 4510); ("text", 414); ("shared-term", 4179); ("mention", 3040); ("duplicate", 403) ]);
    (57, r "eb9519aeb013442ee37d779fd8888461" 14767 38 [ ("xref", 2027); ("seq", 4437); ("text", 404); ("shared-term", 4520); ("mention", 2975); ("duplicate", 404) ]);
    (58, r "6f58485fd19c731ef3bbba7d7d825b24" 14776 38 [ ("xref", 2100); ("seq", 4515); ("text", 403); ("shared-term", 4234); ("mention", 3065); ("duplicate", 459) ]);
    (59, r "7a8cc5ed6943f5ef1befbcb2f19d7460" 15501 38 [ ("xref", 2139); ("seq", 4630); ("text", 405); ("shared-term", 4830); ("mention", 3026); ("duplicate", 471) ]);
    (60, r "65abff07664dcd404c02decd0016c1ce" 14045 38 [ ("xref", 1937); ("seq", 4525); ("text", 410); ("shared-term", 3723); ("mention", 3003); ("duplicate", 447) ]);
    (61, r "5d62c2600d4743dcc30cf2c1b77eccb8" 14951 38 [ ("xref", 2045); ("seq", 4867); ("text", 401); ("shared-term", 4255); ("mention", 2927); ("duplicate", 456) ]);
    (62, r "75f05c2f1928d0a26d303996395f85a1" 14416 38 [ ("xref", 2079); ("seq", 4401); ("text", 438); ("shared-term", 4081); ("mention", 3002); ("duplicate", 415) ]);
    (63, r "aa650560eaf13b3c31aeea8148446547" 14043 38 [ ("xref", 1999); ("seq", 4575); ("text", 388); ("shared-term", 3709); ("mention", 2969); ("duplicate", 403) ]);
  ]

let delta_table =
  [
    (0, r "0aa445f0b8b71c3eb26cc4c89f720db4" 14710 38 [ ("xref", 2050); ("seq", 4690); ("text", 389); ("shared-term", 4231); ("mention", 2924); ("duplicate", 426) ]);
    (1, r "3f87975472f176f1f134cabb54975171" 14177 38 [ ("xref", 2045); ("seq", 4800); ("text", 370); ("shared-term", 3642); ("mention", 2906); ("duplicate", 414) ]);
    (2, r "1ba18104fa4d81f1e635ca713a8be535" 14251 38 [ ("xref", 2135); ("seq", 4397); ("text", 371); ("shared-term", 4010); ("mention", 2884); ("duplicate", 454) ]);
    (3, r "56d7d1884df4972731dee4a8cecbe55c" 14661 38 [ ("xref", 2035); ("seq", 4635); ("text", 368); ("shared-term", 4347); ("mention", 2848); ("duplicate", 428) ]);
    (4, r "c63fbde7c6cea36d2182914dbcfb3947" 13907 38 [ ("xref", 2026); ("seq", 4563); ("text", 377); ("shared-term", 3724); ("mention", 2801); ("duplicate", 416) ]);
    (5, r "eef562eff7bd673dede2554fe4c98657" 14349 38 [ ("xref", 2032); ("seq", 4538); ("text", 359); ("shared-term", 4026); ("mention", 2959); ("duplicate", 435) ]);
    (6, r "566f7c782ac1334600ecb7e5d1e24000" 13913 38 [ ("xref", 2105); ("seq", 4399); ("text", 419); ("shared-term", 3650); ("mention", 2895); ("duplicate", 445) ]);
    (7, r "4cd876138d4d2d31bfe2078fab2e3719" 14825 38 [ ("xref", 2055); ("seq", 4537); ("text", 388); ("shared-term", 4471); ("mention", 2927); ("duplicate", 447) ]);
    (8, r "8f4b5830f58452602012f1be9c0aeba5" 14269 38 [ ("xref", 1909); ("seq", 4547); ("text", 392); ("shared-term", 4051); ("mention", 2945); ("duplicate", 425) ]);
    (9, r "dfa4119462e469ce09f76c62953f5475" 14324 38 [ ("xref", 2073); ("seq", 4372); ("text", 393); ("shared-term", 4142); ("mention", 2939); ("duplicate", 405) ]);
    (10, r "60ebd64032bb358550d1ab7cbb597d1f" 14509 38 [ ("xref", 2076); ("seq", 4606); ("text", 383); ("shared-term", 4126); ("mention", 2876); ("duplicate", 442) ]);
    (11, r "b24eb8b73638b0cb5d358d47e83449c2" 14137 38 [ ("xref", 2022); ("seq", 4772); ("text", 371); ("shared-term", 3717); ("mention", 2819); ("duplicate", 436) ]);
    (12, r "6e905612112f1773436dec38d1d0afed" 14059 38 [ ("xref", 2065); ("seq", 4511); ("text", 371); ("shared-term", 3814); ("mention", 2866); ("duplicate", 432) ]);
    (13, r "0a20616f63bb26e8c995ce9468beed04" 14668 38 [ ("xref", 2093); ("seq", 4538); ("text", 361); ("shared-term", 4361); ("mention", 2890); ("duplicate", 425) ]);
    (14, r "2568270c7a6ef77cfa2bc200411e6067" 14066 38 [ ("xref", 2023); ("seq", 4478); ("text", 372); ("shared-term", 3836); ("mention", 2904); ("duplicate", 453) ]);
    (15, r "56d4f9e85a7aee75ef1feb051a9c8230" 14196 38 [ ("xref", 1950); ("seq", 4475); ("text", 404); ("shared-term", 3984); ("mention", 2959); ("duplicate", 424) ]);
    (16, r "9095ab63291c7ec6d039ad79339f09fe" 14039 38 [ ("xref", 2057); ("seq", 4368); ("text", 367); ("shared-term", 3891); ("mention", 2942); ("duplicate", 414) ]);
    (17, r "0b7499e82321fde66593c893ae1f2fcc" 14290 38 [ ("xref", 2015); ("seq", 4484); ("text", 386); ("shared-term", 4002); ("mention", 2984); ("duplicate", 419) ]);
    (18, r "86ba404941720eb8f54ecfcf1da03518" 14441 38 [ ("xref", 1972); ("seq", 4679); ("text", 384); ("shared-term", 4085); ("mention", 2887); ("duplicate", 434) ]);
    (19, r "1de827dcf41afb59d8750361f2ad9da2" 14417 38 [ ("xref", 2019); ("seq", 4694); ("text", 389); ("shared-term", 3900); ("mention", 2961); ("duplicate", 454) ]);
    (20, r "78c53c9c5593b2b3eb24278ed296fecd" 14337 38 [ ("xref", 2033); ("seq", 4558); ("text", 381); ("shared-term", 4007); ("mention", 2925); ("duplicate", 433) ]);
    (21, r "8e156f511cd4ae7093d14e1d8cd0b243" 14281 38 [ ("xref", 2008); ("seq", 4553); ("text", 388); ("shared-term", 3986); ("mention", 2895); ("duplicate", 451) ]);
    (22, r "f18883ff4f980aad9708c4c5f3129597" 14120 38 [ ("xref", 2018); ("seq", 4702); ("text", 381); ("shared-term", 3711); ("mention", 2895); ("duplicate", 413) ]);
    (23, r "6ea2abf2c05b4598409d5cc215ffe642" 14155 38 [ ("xref", 1998); ("seq", 4495); ("text", 379); ("shared-term", 3975); ("mention", 2883); ("duplicate", 425) ]);
    (24, r "41c5628a82560bc1598a490edd938a5b" 14425 38 [ ("xref", 1932); ("seq", 4646); ("text", 386); ("shared-term", 4219); ("mention", 2804); ("duplicate", 438) ]);
    (25, r "53ec2c3d29dd91342eb4598e98e3bf48" 14022 38 [ ("xref", 1991); ("seq", 4522); ("text", 374); ("shared-term", 3825); ("mention", 2878); ("duplicate", 432) ]);
    (26, r "ce3f08eef01ee150ba08eedb26e4853d" 14048 38 [ ("xref", 2037); ("seq", 4492); ("text", 372); ("shared-term", 3755); ("mention", 2992); ("duplicate", 400) ]);
    (27, r "ac2cc2c806a89dcf0d4367d33e88b5dc" 14246 38 [ ("xref", 1976); ("seq", 4458); ("text", 401); ("shared-term", 4088); ("mention", 2897); ("duplicate", 426) ]);
    (28, r "fea7142f9741e0432135a0b8a3df97e5" 14468 38 [ ("xref", 1977); ("seq", 4592); ("text", 381); ("shared-term", 4084); ("mention", 2960); ("duplicate", 474) ]);
    (29, r "a2d94059023d7cb5caa0c9a06c0b4646" 14352 38 [ ("xref", 2033); ("seq", 4488); ("text", 378); ("shared-term", 4193); ("mention", 2827); ("duplicate", 433) ]);
    (30, r "5fe15d880e841aaca8ac0d9bebbcec3a" 13980 38 [ ("xref", 2013); ("seq", 4563); ("text", 387); ("shared-term", 3694); ("mention", 2853); ("duplicate", 470) ]);
    (31, r "abaa2f826b6ce542076cbc2e7e5927aa" 14294 38 [ ("xref", 1985); ("seq", 4389); ("text", 368); ("shared-term", 4197); ("mention", 2913); ("duplicate", 442) ]);
    (32, r "c2d294f401179a8337fe58cec393d514" 14604 38 [ ("xref", 2033); ("seq", 4651); ("text", 390); ("shared-term", 4194); ("mention", 2907); ("duplicate", 429) ]);
    (33, r "4e62462fa72c8570cb618fbc89409a86" 14941 38 [ ("xref", 2088); ("seq", 4735); ("text", 391); ("shared-term", 4439); ("mention", 2858); ("duplicate", 430) ]);
    (34, r "8a3dd4e5515bb9c56db534aae7f614b6" 14262 38 [ ("xref", 2052); ("seq", 4641); ("text", 369); ("shared-term", 3857); ("mention", 2909); ("duplicate", 434) ]);
    (35, r "23566b837b2bc3c888bc2ecb456ee759" 14034 38 [ ("xref", 1988); ("seq", 4548); ("text", 377); ("shared-term", 3958); ("mention", 2766); ("duplicate", 397) ]);
    (36, r "c327f0193845a831b54be852eaed7f65" 14164 38 [ ("xref", 2033); ("seq", 4583); ("text", 369); ("shared-term", 3913); ("mention", 2827); ("duplicate", 439) ]);
    (37, r "782a7bb4b91fc402867347da3535ba6a" 14398 38 [ ("xref", 1958); ("seq", 4658); ("text", 386); ("shared-term", 4029); ("mention", 2915); ("duplicate", 452) ]);
    (38, r "f1a117885beeaa767120d53df440f8cf" 14773 38 [ ("xref", 2062); ("seq", 4550); ("text", 392); ("shared-term", 4399); ("mention", 2922); ("duplicate", 448) ]);
    (39, r "dec83c5c1327a0bf07d0a87b0e7bd22f" 14395 38 [ ("xref", 2004); ("seq", 4721); ("text", 373); ("shared-term", 3973); ("mention", 2892); ("duplicate", 432) ]);
    (40, r "c4603c76eb7197ddf9be5be128932348" 14281 38 [ ("xref", 1967); ("seq", 4516); ("text", 390); ("shared-term", 4100); ("mention", 2860); ("duplicate", 448) ]);
    (41, r "c401082a9bba8f955ff9cfe803b23e24" 14105 38 [ ("xref", 2040); ("seq", 4432); ("text", 400); ("shared-term", 3903); ("mention", 2887); ("duplicate", 443) ]);
    (42, r "26d9082af2e746994690f6efe54141e4" 14633 38 [ ("xref", 2030); ("seq", 4529); ("text", 391); ("shared-term", 4364); ("mention", 2874); ("duplicate", 445) ]);
    (43, r "cd590715930fdb28804493ceb5a60148" 14281 38 [ ("xref", 2032); ("seq", 4589); ("text", 361); ("shared-term", 3852); ("mention", 2976); ("duplicate", 471) ]);
    (44, r "357bd537a56a502e8dfe25cf75a4e6c2" 14175 38 [ ("xref", 2043); ("seq", 4567); ("text", 362); ("shared-term", 3888); ("mention", 2896); ("duplicate", 419) ]);
    (45, r "4a49ca6b874ff03abbe7974732394f78" 14405 38 [ ("xref", 2085); ("seq", 4582); ("text", 400); ("shared-term", 3995); ("mention", 2880); ("duplicate", 463) ]);
    (46, r "e81dcbc0dd10bc417beaa7cf358021ad" 14342 38 [ ("xref", 1976); ("seq", 4473); ("text", 369); ("shared-term", 4193); ("mention", 2918); ("duplicate", 413) ]);
    (47, r "3c164a374e433c6af93634e7b6184f12" 14338 38 [ ("xref", 2067); ("seq", 4512); ("text", 372); ("shared-term", 4079); ("mention", 2883); ("duplicate", 425) ]);
    (48, r "f8e4aeb0c5d589ce16172f5f3763707b" 14360 38 [ ("xref", 1950); ("seq", 4513); ("text", 388); ("shared-term", 4205); ("mention", 2904); ("duplicate", 400) ]);
    (49, r "17504a02f80414ba0f2fcefad2f87b3f" 14684 38 [ ("xref", 2098); ("seq", 4525); ("text", 366); ("shared-term", 4338); ("mention", 2945); ("duplicate", 412) ]);
    (50, r "2931e42cf6d46dfff369a8680d556228" 14933 38 [ ("xref", 2059); ("seq", 4520); ("text", 383); ("shared-term", 4598); ("mention", 2938); ("duplicate", 435) ]);
    (51, r "00fb336ac0f5ad666b86f246a76d0bf7" 14528 38 [ ("xref", 2046); ("seq", 4611); ("text", 379); ("shared-term", 4190); ("mention", 2854); ("duplicate", 448) ]);
    (52, r "95e077b6884efd5a5a4f02124324d2a4" 13929 38 [ ("xref", 2003); ("seq", 4380); ("text", 370); ("shared-term", 4015); ("mention", 2747); ("duplicate", 414) ]);
    (53, r "d6b79e74174b39342ecb7370bb85f605" 14029 38 [ ("xref", 2029); ("seq", 4702); ("text", 414); ("shared-term", 3578); ("mention", 2875); ("duplicate", 431) ]);
    (54, r "b577ce79c7904d932dd7d1055dbaf1cf" 14168 38 [ ("xref", 2077); ("seq", 4391); ("text", 416); ("shared-term", 3831); ("mention", 2979); ("duplicate", 474) ]);
    (55, r "1a5dd4990b4887dcb209cf1481e5ad5a" 14737 38 [ ("xref", 2044); ("seq", 4428); ("text", 403); ("shared-term", 4486); ("mention", 2930); ("duplicate", 446) ]);
    (56, r "a11903a3e19644ad3f365d95d1eb0935" 14538 38 [ ("xref", 2097); ("seq", 4510); ("text", 393); ("shared-term", 4179); ("mention", 2955); ("duplicate", 404) ]);
    (57, r "b2c5b626e2adba52f21422938bbf7567" 14659 38 [ ("xref", 2027); ("seq", 4437); ("text", 377); ("shared-term", 4520); ("mention", 2894); ("duplicate", 404) ]);
    (58, r "30fd4d82d1bd23c34e79e7d4c1a89533" 14641 38 [ ("xref", 2100); ("seq", 4515); ("text", 381); ("shared-term", 4234); ("mention", 2958); ("duplicate", 453) ]);
    (59, r "3bf82e75597e5c67360f0678919ce682" 15388 38 [ ("xref", 2139); ("seq", 4630); ("text", 384); ("shared-term", 4830); ("mention", 2942); ("duplicate", 463) ]);
    (60, r "af05567ec2ffcf917f7bdf3e207db315" 13908 38 [ ("xref", 1937); ("seq", 4525); ("text", 394); ("shared-term", 3723); ("mention", 2889); ("duplicate", 440) ]);
    (61, r "a690426ba65e565af7b46001dd9a0f89" 14816 38 [ ("xref", 2045); ("seq", 4867); ("text", 381); ("shared-term", 4255); ("mention", 2817); ("duplicate", 451) ]);
    (62, r "dcf83f56e17bf79585ff503c798f7cad" 14251 38 [ ("xref", 2079); ("seq", 4401); ("text", 401); ("shared-term", 4081); ("mention", 2877); ("duplicate", 412) ]);
    (63, r "aefe6f51ac25cc0bbfe54db0fbe34e93" 13929 38 [ ("xref", 1999); ("seq", 4575); ("text", 369); ("shared-term", 3709); ("mention", 2881); ("duplicate", 396) ]);
  ]

let cold seed = List.assoc_opt seed cold_table
let delta seed = List.assoc_opt seed delta_table
