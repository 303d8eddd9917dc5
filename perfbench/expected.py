"""Reference answers the benchmark checks every operation against.

Sources:

- `CORPUS_STATES`: all four pristine pairs are Composable, as the
  acceptance tests require of the first three; the state counts are a
  regression reference recorded when this benchmark was written.  A
  different count is reported, not failed: a reduction may change it.
- `MUTANTS`: only the dropped `sendPB` answer is independent: the
  brute-force oracle in tests/test_acceptance.py confirms it.  Every other
  answer, and every state count, is a regression reference recorded at
  the same commit.  The set is every single-send deletion that validates
  and turns a pair Incompatible at `ws-ws`, plus those at `wso-ws` whose
  check explores fewer than 6,000 states, so that product and witness
  work is a large share of each check.
- `GOLDEN_EXCHANGES` is the conversation the README documents.  The trace
  and export digests are a regression reference: the ROADMAP requires
  optimisations to leave traces and exports byte-identical.
"""

# pristine pair -> states explored
CORPUS_STATES = {
    ("UserAgentWSO", "UserAgentWS", "wso-ws"): 26411,
    ("BookStoreWSO", "BookStoreWS", "wso-ws"): 18092,
    ("UserAgentWS", "BookStoreWS", "ws-ws"): 2035,
    ("UserAgentWSO", "BookStoreWSO", "wso-wso"): 35576,
}

# 'Definition.method: deleted send' -> (pair, verdict kind, missing labels,
# states explored)
MUTANTS = {
    'SendSBAA.receiveSBFromCustomer: wso-ref <- sendSB(selectedBooks)': (
        ('UserAgentWSO', 'UserAgentWS', 'wso-ws'), 'Incompatible',
        ('right:consume-2(sendSB)',), 4791,
    ),
    'PayBAA.payBFromCustomer: wso-ref <- payB()': (
        ('UserAgentWSO', 'UserAgentWS', 'wso-ws'), 'Incompatible',
        ('right:consume-2(payB)',), 4581,
    ),
    'UserAgentWSO.requestLB: ws-ref <- requestLB()': (
        ('UserAgentWS', 'BookStoreWS', 'ws-ws'), 'Incompatible',
        ('right:consume-2(requestLB)',), 4244,
    ),
    'UserAgentWSO.receiveLB: sendSBAA <- receiveSBFromCustomer(books)': (
        ('UserAgentWSO', 'UserAgentWS', 'wso-ws'), 'Incompatible',
        ('right:consume-2(sendSB)',), 4155,
    ),
    'UserAgentWSO.sendSB: ws-ref <- sendSB(selectedBooks)': (
        ('UserAgentWS', 'BookStoreWS', 'ws-ws'), 'Incompatible',
        ('right:consume-2(sendSB)',), 4244,
    ),
    'UserAgentWSO.receivePB: payBAA <- payBFromCustomer()': (
        ('UserAgentWSO', 'UserAgentWS', 'wso-ws'), 'Incompatible',
        ('right:consume-2(payB)',), 4203,
    ),
    'UserAgentWSO.payB: ws-ref <- payB()': (
        ('UserAgentWS', 'BookStoreWS', 'ws-ws'), 'Incompatible',
        ('right:consume-2(payB)',), 4244,
    ),
    'UserAgentWS.receiveLB: wso-ref <- receiveLB(books)': (
        ('UserAgentWSO', 'UserAgentWS', 'wso-ws'), 'Incompatible',
        ('right:consume-2(sendSB)',), 1781,
    ),
    'UserAgentWS.receivePB: wso-ref <- receivePB(prices)': (
        ('UserAgentWSO', 'UserAgentWS', 'wso-ws'), 'Incompatible',
        ('right:consume-2(payB)',), 1805,
    ),
    'SendLBAA.sendLBFromStore: wso-ref <- sendLB(books)': (
        ('BookStoreWSO', 'BookStoreWS', 'wso-ws'), 'Incompatible',
        ('right:consume-2(receiveLB)',), 5264,
    ),
    'SendPBAA.sendPBFromStore: wso-ref <- sendPB(price)': (
        ('BookStoreWSO', 'BookStoreWS', 'wso-ws'), 'Incompatible',
        ('right:consume-2(receivePB)',), 5264,
    ),
    'BookStoreWSO.requestLB: sendLBAA <- sendLBFromStore(books)': (
        ('BookStoreWSO', 'BookStoreWS', 'wso-ws'), 'Incompatible',
        ('right:consume-2(receiveLB)',), 3952,
    ),
    'BookStoreWSO.sendLB: ws-ref <- receiveLB(books)': (
        ('UserAgentWS', 'BookStoreWS', 'ws-ws'), 'Incompatible',
        ('left:consume-2(receiveLB)',), 5076,
    ),
    'BookStoreWSO.sendSB: sendPBAA <- sendPBFromStore()': (
        ('BookStoreWSO', 'BookStoreWS', 'wso-ws'), 'Incompatible',
        ('right:consume-2(receivePB)',), 4850,
    ),
    'BookStoreWSO.sendPB: ws-ref <- receivePB(prices)': (
        ('UserAgentWS', 'BookStoreWS', 'ws-ws'), 'Incompatible',
        ('left:consume-2(receivePB)',), 5076,
    ),
    'BookStoreWS.requestLB: wso-ref <- requestLB()': (
        ('BookStoreWSO', 'BookStoreWS', 'wso-ws'), 'Incompatible',
        ('right:consume-2(receiveLB)',), 2432,
    ),
    'BookStoreWS.sendSB: wso-ref <- sendSB(selectedBooks)': (
        ('BookStoreWSO', 'BookStoreWS', 'wso-ws'), 'Incompatible',
        ('right:consume-2(receivePB)',), 2432,
    ),
}

CHOREOGRAPHY = "BuyingBookWSC"
MAX_STEPS = 500
GOLDEN_EXCHANGES = ["requestLB", "receiveLB", "sendSB", "receivePB", "payB"]

# run seed -> sha256 of Trace.text()
TRACE_SHA256 = {
    0: 'a8202797795c1743a93bbe7810a0cb79e1bc78370d4fd0f010c3b36672e4c22b',
    1: 'c213b42c14e026bd823fcb0ca7a156da0d89c7c96832ba849e62a8495bda5f2d',
    2: 'e5929a8e0ab4d1939b10039b535c9318c155d65be0510b88f4c551e340354404',
    3: 'caf0824af6c09f1bdeb0fce3af36beee4ad7fe050aeb02f3206a95cc7fe19c9d',
    4: 'e410f1b8c701d4fffb5199e9aec858fa320032a3a3d7c8b098ffdfa070f52aa1',
    5: 'b1a5e97322c33aa2ccbed73f35c3b23e8ade6c90f56e56d8390dcc5b2056a480',
    6: 'aa7f4812656276826c3a611d11e08870f72371e0ef5d29fda23a827079aa1b93',
    7: '3dd18fadb735c7f95c1c0e14747fce58caa259e7695543edaeea753f446458c4',
    8: '46df86eb92a749e3f39370e1b808465c9ca0b673c58fed2d0fbe8fad9af3bfdb',
    9: '12bb247ead0b09c3256b1ce6c88b19dc18d180b0ad28a1fffb19882d0495f599',
    10: '467361f17736a0e76dfd4b6f1aebbbe640328dc291e9c8905fd5793b0a696fc1',
    11: 'fa9fd24406d0fe8edb6e5e3da10ebb56e9e44a9345e3e812b4917aee9801e375',
    12: 'a53ae86621969e5d76df7cdada1c713698d49357d0f6d15cef636dc4ce999069',
    13: 'b230e7200991d5a83831ac12ae82979016501a37a8439b01d9838a83860fbe5f',
    14: '477aab980689506175c0ce98ece84671e8d7579683d2e480677bd7eb8142e29a',
    15: 'b1c203f6028705f400e4de68f4ec2858622ddef027f1125894f087c73924aee1',
    16: '6502f97df79a449daf831c58310b72c94bc8136d1b48ad07ff4808008a54ee9f',
    17: 'a3c425d43bd80554f88d94d6879c5ab6f0a4d574892d3762b3da1ec74307d7f2',
    18: 'ce61848d2bb5bb296a00749e9db7518834eac98a7a51a94391825b3ad78a9380',
    19: '37b31bc5ea90098b47239bc67eb7a7b7053c7ebfb83026cf8933d8aa3fd8f8e4',
    20: '2054400560a5baf5694ceac3df2c39229164b55919fe8b7a12df17d8165213ae',
    21: '8c0c015045edf208cac6021fddc87e979eb4befbdbf4cb9d55f1db0f90624c7a',
    22: '7665921d5677d0580e3c50d62da51d911141eb49be30cd228e945cac532721c7',
    23: '3d13a781fb5ec64885369ed7c31d1e4367625942aa6bbccc4b400de85ba98aac',
    24: '69eda7c045c841351b9b954f58719583544e1816b4583bc52553f896383ddd44',
    25: '0e03e9c5cc74f02b75f31dc7cb66f340775999073598a598c072bd69b00d92b1',
    26: '153fbd159544fcfe78a32c0a9bfbc4ca5bb4292bf5f8eeeb82caf473fc4e0ed2',
    27: 'de08e324ab8d0fd05e12add9405cf843e7e8d8c9a102c7869c9c39926c694580',
    28: '60b05e211c47930dd0b9d7cc9b1863ee358734da2b1489fb6775bc537ae5b8a2',
    29: 'd6d8734f3910a30a9006b876d53f76b14d98b652c182f224385a33c45f8cd21d',
    30: '0ee57c31ebf63ea30c99bab9c4876bd9db17395d5d2ac364f2031aed59feb8fe',
    31: '4c5ed8eb7633c446b2fa8f2e28509b9f298675d5addb9b0ba435c9b2f16c7fe5',
    32: '2de050310f3b442784a0e33854098c976dce1f3402c4498717ce710c5a85c840',
    33: '126e84e33c59e2a043854cc06299b540fedc541c538cea682775cdf533af737c',
    34: 'ee52d9f7d82936c2c2456d00599f80be61d5c31187cd434982d861eb93c74ac6',
    35: '856dcea3bc1713dec56ea6fea29e48702b742edcce5dae0764a7561613094b02',
    36: 'c908cdf30674ff23ddfdd63512741019e42db355b945247be9aeca49cc6e0368',
    37: '26d0f1ef562903014f4af5d9ea9292fff1555568c3df99903b24c6abb8f4312b',
    38: 'f342da10cf4f7dee929d3df7938f3403731b107ed6a6049bec11f6558cebc061',
    39: '98ab757de321f03d875a52790a0c5be07b8cbe0fa8b2ad7fb82c2ee34cc55866',
    40: '7c0add4c4af08f8ac6a256824fca4e4fac99690f6d1214b3c8fe36a09ca7e770',
    41: '765f5b1c46a6ec3b179a24fa4a208504c05c73f60c854762218c57852ea0bf34',
    42: '58141b070c18afe99c2fbdc6deb6a74676d7aa8360347f80c5b0c1b4b63571be',
    43: 'ce04d2aa96c43bd36b48ab3fc74b357376bbd5372bfed0b159358e214da7e3fa',
    44: 'cce458bd955529786cf2dc1094bd18be720b84f25594802b2af3200f8569ff6a',
    45: 'fec730fcc47c5414d8c135a44e1e06d9fd41bd625ed01d4cf6657acd93647253',
    46: 'b720867fe2915a83625bd4c8163b245d0fdb230b01035e4a1aa223520a071efd',
    47: '0eb59fd56ada6b596985b2fdd0e336a9637fc28f9b0ad40987d1ec0d82f24df1',
    48: '8a3586ccc6997534e792ecab79f93c5b11f1d206d7954f3543d80c9ff116c457',
    49: '3dd977ec8ec275493f2b6d32006a97af3ef79712da464b05d1998e821e857737',
    50: 'efdb59705a7e12d96d44dc415caa631e9c088aa2520f90224aaefc1346473158',
    51: '2c3b031906a246f09cabb45d051c2fc6116b2336466b12190d7f969d736b582f',
    52: '12f47ab8394bdf22e8f92fc29f515abc24c61924953a05c7c9fedfb63b6966b8',
    53: '09a45304ede40c767502a8854e022e41f3b3dc2512767317fa3af9b05375fb92',
    54: 'c290e8e1ad61a7fa5ae4907320a99fc558c824fbd178a5cb4b8c267f116e2c99',
    55: 'c83ef00fb2774c05d4ea0d2d664570457cbaa652af9a80c26fafa0f6a10d86cc',
    56: '57a02931860891ce032dd1c58933ca8e3d5d3d0df9a0fe3b5e41c44eae2f6c04',
    57: '14aaf5d2799a863de93982bdcb53da9a118fe57fdab2d54b09b4e086a82562d6',
    58: '7a13fc3ad016c57790a8f33356efa0680dde12c3440c5aaa1cff3d4c44024f65',
    59: 'bcf6abff7e08d00afccf840466d835d62a42f27747ca12b897cbd44402ac424e',
    60: 'cadeaf09f8aedf2b91e0ce317dcacc5cee326fd0cfc6822b8a8290e69c1e7d07',
    61: 'b3ee300c45419635ec386f7bfc56d28ed9e59f3da9ded6ac90999a5784be821a',
    62: '544cb0592c208666eeacf4a2b508799369b98f3807c22b3f1899887aa304f195',
    63: '255aa36bf4af8cd9722e7be6f570f142efb49843db018942e3d3a169cffd414f',
}

# (target, definition) -> sha256 of XmlSkeleton.to_text()
EXPORT_SHA256 = {
    ('wsdl', 'UserAgentWS'): '696c5db5ecdae0d9ce751939f7a5005b6a80b6e2d8deca8541aca25a0311fc19',
    ('bpel', 'UserAgentWSO'): 'c3fa8d047524e78afeddf62ffe15bd4479d717461ef8115f046a02a430bb54f9',
    ('cdl', 'BuyingBookWSC'): '4dd361c53a5cb618f3e7b534cf68c65942085c0175b87b8174a220f269bab941',
}
